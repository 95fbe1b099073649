//! Wall-clock throughput of the event core, measured.
//!
//! ```text
//! throughput [--out PATH] [--requests N] [--iters K]
//! throughput --check PATH
//! ```
//!
//! Runs the storm scenarios (three tenant mixes, ≥ 1 M requests total at
//! full scale) and the elastic-v2 controller scenarios (predictive
//! growth, donor reclaim) through the engine and writes the measured
//! trajectory to `BENCH_perf.json`: wall time (best of `--iters`),
//! events/sec, requests/sec and peak event-queue depth per scenario,
//! then the sharded kernel's 1/2/4/8-shard curve on the first storm
//! mix. With a second rayon thread, the engine fills a sequential run's
//! arrival tape on it, one epoch ahead; each row prints which way its
//! arrivals were drawn and how many epochs of them the simulation
//! thread waited for.
//!
//! Two gates ride along:
//!
//! * **Shard-width identity.** Every width of the scaling curve must
//!   take the sharded path and reproduce the single-shard report bytes
//!   and logical event count; any divergence fails the run. The curve
//!   is only comparable because the work is bit-identical.
//! * **Validation.** The artifact is checked against
//!   [`venice_bench::validate_perf`] before it is written, and
//!   `--check PATH` re-validates a committed artifact (CI runs this on
//!   a reduced-count smoke artifact; the scaling floor is asserted on
//!   the committed full-scale file by the test suite, not here — smoke
//!   machines time whatever they time).
//!
//! Wall times are machine-dependent, so unlike `BENCH_figures.json`
//! this artifact is **not** freshness-diffed in CI; refresh it with
//! `cargo run --release -p venice-bench --bin throughput` when the
//! event core changes materially.

use std::process::ExitCode;
use std::time::Instant;

use venice_bench::{
    validate_perf, PerfEntry, PerfReport, ScalingEntry, PERF_SCHEMA_V3, SCALING_WIDTHS,
};
use venice_loadgen::{engine, scenarios, EngineMetrics, ExecPath, LoadgenConfig};

/// Default timing iterations (best-of is kept).
const DEFAULT_ITERS: u32 = 3;

struct Args {
    out: Option<String>,
    requests: Option<u64>,
    iters: u32,
    check: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: None,
        requests: None,
        iters: DEFAULT_ITERS,
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut take = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--out" => args.out = Some(take("--out")?),
            "--requests" => {
                args.requests = Some(
                    take("--requests")?
                        .parse()
                        .map_err(|e| format!("--requests: {e}"))?,
                )
            }
            "--iters" => {
                args.iters = take("--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?;
                if args.iters == 0 {
                    return Err("--iters must be at least 1".to_string());
                }
            }
            "--check" => args.check = Some(take("--check")?),
            other => {
                return Err(format!(
                    "unknown argument `{other}`\n\
                     usage: throughput [--out PATH] [--requests N] [--iters K] | --check PATH"
                ))
            }
        }
    }
    Ok(args)
}

/// The timed `(family, row label)` pairs of the loadgen registry. The
/// elastic-v2 predictor and donor-reclaim rows cover every v2 control
/// path (predictive grows, revokes, quotas) without timing
/// near-duplicate baselines.
const GRID: &[(&str, &str)] = &[
    ("storm", "web-frontend"),
    ("storm", "analytics"),
    ("storm", "messaging"),
    ("elastic-v2", "venice-predictive"),
    ("elastic-v2", "donor-reclaim"),
];

/// The scenario grid: (family, label, config) at full published scale.
fn grid() -> Vec<(&'static str, &'static str, LoadgenConfig)> {
    GRID.iter()
        .map(|&(family, label)| (family, label, scenarios::row(family, label).1))
        .collect()
}

/// Worker threads available to this recorder, stamped into the
/// artifact: `RAYON_NUM_THREADS` if set (the workspace's rayon shim
/// honors it on every parallel call), else the machine's available
/// parallelism. The scaling gate on the committed artifact keys off
/// this — a single-core recorder can only measure sharding overhead.
fn worker_threads() -> u32 {
    if let Some(n) = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse::<u32>().ok())
    {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(1)
}

/// One timed call of `f`, in milliseconds.
fn time_once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64() * 1e3, r)
}

/// Times `config` through the engine, returning the entry and the
/// engine's loop counters.
fn measure(
    iters: u32,
    family: &str,
    label: &str,
    config: &LoadgenConfig,
) -> (PerfEntry, EngineMetrics) {
    let mut wall_ms = f64::INFINITY;
    let mut result = None;
    for _ in 0..iters {
        let (wall, out) = time_once(|| engine::Run::new(config).execute());
        wall_ms = wall_ms.min(wall);
        result = Some(out);
    }
    let out = result.expect("iters >= 1");
    let metrics = out.metrics;
    let entry = PerfEntry {
        family: family.to_string(),
        label: label.to_string(),
        requests: out.report.issued,
        events: metrics.events,
        peak_queue_depth: metrics.peak_queue_depth as u64,
        typed_wall_ms: wall_ms,
        typed_events_per_sec: metrics.events as f64 / (wall_ms / 1e3),
        typed_requests_per_sec: out.report.issued as f64 / (wall_ms / 1e3),
    };
    (entry, metrics)
}

/// Measures the sharded kernel's scaling curve on one storm
/// configuration: the same run at every width of [`SCALING_WIDTHS`]
/// through `Run::shards(n)`, best-of-`iters` wall time per width.
///
/// Its own determinism gate rides along: every width's report is
/// serialized and byte-compared against the single-shard report before
/// the timing counts, so the curve can only record runs whose output is
/// bit-identical to the sequential engine's. A width whose run did not
/// take the sharded path ([`ExecPath`]) is refused outright, its error
/// printing the path it took (a fallback's reason, down to an
/// ineligible run's [`IneligibleKind`]): its timing would be the
/// sequential engine's.
///
/// [`IneligibleKind`]: venice_loadgen::IneligibleKind
fn measure_scaling(
    iters: u32,
    family: &str,
    label: &str,
    config: &LoadgenConfig,
) -> Result<Vec<ScalingEntry>, String> {
    let mut walls = vec![f64::INFINITY; SCALING_WIDTHS.len()];
    let mut reports = vec![None; SCALING_WIDTHS.len()];
    let mut events = vec![0u64; SCALING_WIDTHS.len()];
    // Interleave widths within each iteration: shared-machine noise then
    // degrades the whole curve instead of one width.
    for _ in 0..iters {
        for (i, &width) in SCALING_WIDTHS.iter().enumerate() {
            let (wall, out) =
                time_once(|| engine::Run::new(config).shards(width as usize).execute());
            let expected = match width {
                1 => ExecPath::Sequential,
                width => ExecPath::Sharded {
                    width: width as usize,
                },
            };
            if out.exec_path != expected {
                return Err(format!(
                    "{family}/{label}: the {width}-shard run took {:?}, not {expected:?}; \
                     a fallback would time the sequential engine",
                    out.exec_path
                ));
            }
            walls[i] = walls[i].min(wall);
            events[i] = out.metrics.events;
            reports[i] = Some(out.report);
        }
    }
    let base_json =
        serde_json::to_string(reports[0].as_ref().expect("iters >= 1")).expect("report serializes");
    let mut curve = Vec::new();
    for (i, &width) in SCALING_WIDTHS.iter().enumerate() {
        let json = serde_json::to_string(reports[i].as_ref().expect("iters >= 1"))
            .expect("report serializes");
        if json != base_json {
            return Err(format!(
                "{family}/{label}: {width}-shard report diverged from single-shard \
                 ({} bytes vs {} bytes)",
                json.len(),
                base_json.len()
            ));
        }
        if events[i] != events[0] {
            return Err(format!(
                "{family}/{label}: {width}-shard run executed {} logical events, \
                 single-shard executed {}",
                events[i], events[0]
            ));
        }
        curve.push(ScalingEntry {
            family: family.to_string(),
            label: label.to_string(),
            shards: width,
            wall_ms: walls[i],
            events_per_sec: events[i] as f64 / (walls[i] / 1e3),
            speedup_vs_single: if width == 1 { 1.0 } else { walls[0] / walls[i] },
        });
    }
    Ok(curve)
}

fn check(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("throughput: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report: PerfReport = match serde_json::from_str(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("throughput: {path} does not parse as a perf artifact: {e}");
            return ExitCode::FAILURE;
        }
    };
    let problems = validate_perf(&report);
    if problems.is_empty() {
        println!(
            "throughput: {path} valid ({} entries, families covered)",
            report.entries.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("throughput: {path} is invalid:");
        for p in &problems {
            eprintln!("  - {p}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("throughput: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.check {
        return check(path);
    }

    let mut entries = Vec::new();
    for (family, label, mut config) in grid() {
        if let Some(n) = args.requests {
            config.requests = n;
        }
        let (entry, metrics) = measure(args.iters, family, label, &config);
        println!(
            "{family:<10} {label:<18} {:>9} req  {:>8.1} ms ({:>5.2} M ev/s)  \
             peak depth {}  tape {} ({} epoch waits)",
            entry.requests,
            entry.typed_wall_ms,
            entry.typed_events_per_sec / 1e6,
            entry.peak_queue_depth,
            if metrics.tape_producer {
                "producer"
            } else {
                "inline"
            },
            metrics.tape_epoch_waits,
        );
        entries.push(entry);
    }

    // The scaling curve: the first storm configuration at every shard
    // width. One configuration is enough — the curve measures the
    // parallel kernel, not the mix — and keeps the refresh affordable.
    let mut scaling = Vec::new();
    if let Some((family, label, mut config)) = grid().into_iter().next() {
        if let Some(n) = args.requests {
            config.requests = n;
        }
        match measure_scaling(args.iters, family, label, &config) {
            Ok(curve) => {
                for point in &curve {
                    println!(
                        "scaling    {label:<18} {:>2} shards  {:>8.1} ms ({:>5.2} M ev/s)  \
                         speedup {:.2}x",
                        point.shards,
                        point.wall_ms,
                        point.events_per_sec / 1e6,
                        point.speedup_vs_single,
                    );
                }
                scaling.extend(curve);
            }
            Err(e) => {
                eprintln!("throughput: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = PerfReport {
        schema: PERF_SCHEMA_V3.to_string(),
        iters: args.iters,
        requests_override: args.requests,
        entries,
        scaling,
        threads: worker_threads(),
    };
    let problems = validate_perf(&report);
    if !problems.is_empty() {
        eprintln!("throughput: produced an invalid artifact:");
        for p in &problems {
            eprintln!("  - {p}");
        }
        return ExitCode::FAILURE;
    }
    let path = args.out.unwrap_or_else(|| "BENCH_perf.json".to_string());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Err(e) = std::fs::write(&path, json + "\n") {
        eprintln!("throughput: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");
    ExitCode::SUCCESS
}
