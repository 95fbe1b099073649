//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Runs one named workload (see [`workloads`]) for `S` seconds of timed
//! passes, checks that every simulated output is correct, and prints as
//! its last line one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! * `--trace 0` times whole passes over the workload's rows with the
//!   engine unprobed, each against a fixed reference computation
//!   ([`reference`]), and reports the end-to-end metrics.
//! * `--trace 1` adds a wall-clock probe ([`probe`]) to a separate pass,
//!   times each layer's public functions directly ([`layers`]), and
//!   reports the per-layer metrics.
//! * `--smoke` shrinks every row for the benchmark's own tests.
//!
//! Operations are simulated requests. A request belongs to `failed` when
//! a correctness check on its row fails; sheds and crash losses are
//! simulated outcomes and show in `served_pct`. Any failed check makes
//! the exit code non-zero.

mod layers;
mod probe;
mod reference;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use venice_loadgen::{EngineMetrics, LoadReport};

use probe::{Breakdown, WallProbe, FUSED, SLOT_NAMES};
use reference::{Reference, NOMINAL_S};
use stats::{median, quartiles};
use workloads::Workload;

/// Worker threads for sharded passes, and the shard width of
/// `storm-sharded` — no more workers than the recorder's cores.
const SHARD_THREADS: usize = 2;

/// Set-up-only passes (rows at one request) timed before each full pass;
/// `setup_s` is their median on the reference's normalized clock.
const SETUP_REPS: usize = 3;

/// Fewest timed passes (or traced rounds) a run makes, however short
/// `--seconds` is.
const MIN_PASSES: usize = 5;

/// Share of a traced run's time spent on passes; the rest goes to the
/// per-function microbenchmarks.
const TRACED_PASS_SHARE: f64 = 0.7;

/// End-to-end metrics (`--trace 0`), with their units.
const END_TO_END: [(&str, &str); 8] = [
    ("wall_ref", "x"),
    ("requests_per_ref", "req/ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_mean_ms", "sim_ms"),
    ("sim_p99_ms", "sim_ms"),
    ("served_pct", "%"),
    ("sim_borrowed_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with their units.
const PER_LAYER: [(&str, &str); 52] = [
    ("engine.requests", "count"),
    ("engine.events", "count"),
    ("engine.setup_ms", "ms"),
    ("engine.report_ms", "ms"),
    ("engine.arrival_ns", "ns"),
    ("engine.fused_arrival_ns", "ns"),
    ("engine.finish_ns", "ns"),
    ("engine.fused_frac", "frac"),
    ("engine.arrival_pct", "%"),
    ("engine.fused_arrival_pct", "%"),
    ("engine.finish_pct", "%"),
    ("engine.lease_tick_pct", "%"),
    ("engine.lease_established_pct", "%"),
    ("engine.revoke_torndown_pct", "%"),
    ("engine.fault_tick_pct", "%"),
    ("engine.lease_ticks", "count"),
    ("engine.lease_establishes", "count"),
    ("engine.revoke_teardowns", "count"),
    ("engine.fault_ticks", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.accounted_pct", "%"),
    ("queue.push_pop_ns", "ns"),
    ("queue.pushes", "count"),
    ("queue.near_hit_frac", "frac"),
    ("queue.sifts", "count"),
    ("queue.peak_depth", "count"),
    ("workloads.zipf_sample_ns", "ns"),
    ("arrival.exponential_ns", "ns"),
    ("tenants.sample_split_ns", "ns"),
    ("stats.hist_record_ns", "ns"),
    ("admission.on_arrival_ns", "ns"),
    ("admission.admit_frac", "frac"),
    ("admission.shed_rate", "count"),
    ("admission.shed_overload", "count"),
    ("admission.shed_backpressure", "count"),
    ("admission.credit_waits", "count"),
    ("remote.charge_ns", "ns"),
    ("fabric.path_compile_us", "us"),
    ("fabric.path_recompile_us", "us"),
    ("lease.tick_ns", "ns"),
    ("cluster.borrow_release_ns", "ns"),
    ("lease.grows", "count"),
    ("lease.shrinks", "count"),
    ("lease.revokes", "count"),
    ("lease.failovers", "count"),
    ("lease.denials", "count"),
    ("lease.grow_ok_frac", "frac"),
    ("faults.shed_crash", "count"),
    ("sharded.speedup", "x"),
    ("sharded.cpu_per_wall", "x"),
    ("host.nproc", "count"),
    ("host.rayon_threads", "count"),
];

const USAGE: &str =
    "usage: perfbench --workload storm|storm-sharded|flash-crash --seed N --seconds S --trace 0|1 [--smoke]";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Correctness bookkeeping: every failed check names its rows' requests.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, requests: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += requests;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// One pass over a workload's rows: host wall time plus every row's
/// output.
struct Pass {
    wall_s: f64,
    reports: Vec<LoadReport>,
    metrics: Vec<EngineMetrics>,
}

impl Pass {
    fn run(workload: &Workload, shards: usize, checks: &mut Checks) -> Pass {
        let start = Instant::now();
        let outputs: Vec<_> = workload.rows.iter().map(|r| r.execute(shards)).collect();
        let wall_s = start.elapsed().as_secs_f64();
        let (reports, metrics) = outputs.into_iter().map(|o| (o.report, o.metrics)).unzip();
        let pass = Pass {
            wall_s,
            reports,
            metrics,
        };
        checks.attempted += pass.issued();
        pass
    }

    fn issued(&self) -> u64 {
        self.reports.iter().map(|r| r.issued).sum()
    }

    fn json(&self) -> Vec<String> {
        self.reports.iter().map(report_json).collect()
    }
}

fn report_json(report: &LoadReport) -> String {
    serde_json::to_string(report).expect("a load report always serializes")
}

/// Checks every row of `pass` against `expected` byte for byte.
fn check_identical(checks: &mut Checks, what: &str, expected: &[String], pass: &[LoadReport]) {
    for (i, (want, report)) in expected.iter().zip(pass).enumerate() {
        let got = report_json(report);
        checks.check(got == *want, report.issued, || {
            format!(
                "row {i}: {what} report differs ({} vs {} bytes)",
                got.len(),
                want.len()
            )
        });
    }
}

/// Per-row checks of a run's first pass: every issued request completes or
/// is shed, and (at full size) the run simulates past its last fault.
fn check_rows(checks: &mut Checks, workload: &Workload, pass: &Pass, full_size: bool) {
    for (row, r) in workload.rows.iter().zip(&pass.reports) {
        let name = || format!("{}/{}", workload.name, row.label);
        checks.check(r.issued == r.completed + r.shed_total(), r.issued, || {
            format!(
                "{}: issued {} != completed {} + shed {}",
                name(),
                r.issued,
                r.completed,
                r.shed_total()
            )
        });
        if let (true, Some(horizon)) = (full_size, row.fault_horizon()) {
            checks.check(r.duration > horizon, r.issued, || {
                format!(
                    "{}: run ends at {} before its last fault at {horizon}",
                    name(),
                    r.duration
                )
            });
        }
    }
}

/// Metric name → value, in insertion order.
type Metrics = Vec<(&'static str, f64)>;

/// The `--trace 0` run: timed passes until `seconds` have elapsed, each
/// preceded by [`SETUP_REPS`] set-up-only passes and timed against the
/// reference computation run around it, which the set-up passes are
/// normalized by too.
fn end_to_end(workload: &Workload, args: &Args, checks: &mut Checks) -> Result<Metrics, String> {
    let setup = workload.with_requests(1);
    let first = Pass::run(workload, workload.shards, checks);
    check_rows(checks, workload, &first, !args.smoke);
    let first_json = first.json();
    if workload.shards > 1 {
        // The sharded kernel must reproduce the sequential engine's bytes.
        let sequential = Pass::run(workload, 1, checks);
        check_identical(
            checks,
            "sequential vs sharded",
            &sequential.json(),
            &first.reports,
        );
    }

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    // The program's own high-water mark, before the reference computation
    // allocates: every later pass repeats the first pass's work.
    let peak_rss_mb = stats::peak_rss_mb()?;
    let mut reference = Reference::new();
    let (mut walls, mut per_ref, mut reference_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setup_s, mut setup_norm_s) = (Vec::new(), Vec::new());
    while walls.len() < MIN_PASSES || Instant::now() < deadline {
        let setups: Vec<f64> = (0..SETUP_REPS)
            .map(|_| Pass::run(&setup, workload.shards, checks).wall_s)
            .collect();
        let before = reference.time_half();
        let pass = Pass::run(workload, workload.shards, checks);
        let reference_wall = before + reference.time_half();
        walls.push(pass.wall_s);
        reference_s.push(reference_wall);
        per_ref.push(pass.wall_s / reference_wall);
        setup_norm_s.extend(setups.iter().map(|s| s / reference_wall * NOMINAL_S));
        setup_s.extend(setups);
        check_identical(checks, "same-seed pass", &first_json, &pass.reports);
    }

    let wall_ms = median(&walls) * 1e3;
    let (q1, q3) = quartiles(&walls);
    let wall_ref = median(&per_ref);
    let (r1, r3) = quartiles(&per_ref);
    println!(
        "{} passes: wall {wall_ms:.3} ms (q1 {:.3}, q3 {:.3}), reference {:.3} ms, \
         wall_ref {wall_ref:.4} (q1 {r1:.4}, q3 {r3:.4}), raw set-up {:.3} ms",
        walls.len(),
        q1 * 1e3,
        q3 * 1e3,
        median(&reference_s) * 1e3,
        median(&setup_s) * 1e3
    );
    let reports = &first.reports;
    let max_of = |f: &dyn Fn(&LoadReport) -> f64| reports.iter().map(f).fold(0.0, f64::max);
    let completed: u64 = reports.iter().map(|r| r.completed).sum();
    Ok(vec![
        ("wall_ref", wall_ref),
        ("requests_per_ref", first.issued() as f64 / wall_ref),
        ("setup_s", median(&setup_norm_s)),
        ("peak_rss_mb", peak_rss_mb),
        ("sim_mean_ms", max_of(&|r| r.total.mean_us / 1e3)),
        ("sim_p99_ms", max_of(&|r| r.total.p99_us / 1e3)),
        (
            "served_pct",
            100.0 * completed as f64 / first.issued() as f64,
        ),
        (
            "sim_borrowed_mb",
            max_of(&|r| r.lease.mean_bytes as f64 / (1u64 << 20) as f64),
        ),
    ])
}

/// One traced pass: every row through the wall-clock probe.
struct TracedPass {
    wall_s: f64,
    breakdown: Breakdown,
}

fn traced_pass(workload: &Workload, expected: &[String], checks: &mut Checks) -> TracedPass {
    let mut breakdown = Breakdown::default();
    let mut reports = Vec::with_capacity(workload.rows.len());
    let start = Instant::now();
    for row in &workload.rows {
        let out = row.execute_with(workload.shards, WallProbe::start());
        breakdown.absorb(&out.probe.finish());
        reports.push(out.report);
    }
    let wall_s = start.elapsed().as_secs_f64();
    checks.attempted += reports.iter().map(|r| r.issued).sum::<u64>();
    check_identical(checks, "traced vs untraced", expected, &reports);
    TracedPass { wall_s, breakdown }
}

/// The `--trace 1` run: rounds of (sequential, sharded, traced) passes
/// for [`TRACED_PASS_SHARE`] of the time, then the per-function
/// microbenchmarks.
fn per_layer(workload: &Workload, args: &Args, checks: &mut Checks) -> Result<Metrics, String> {
    let start = Instant::now();
    let first = Pass::run(workload, workload.shards, checks);
    check_rows(checks, workload, &first, !args.smoke);
    let first_json = first.json();

    let passes_end = start + Duration::from_secs_f64(args.seconds * TRACED_PASS_SHARE);
    let (mut seq, mut sharded, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sharded_cpu, mut sharded_wall) = (0.0, 0.0);
    let mut total = Breakdown::default();
    let mut setup_ms = Vec::new();
    let mut report_ms = Vec::new();
    let mut accounted = (0u64, 0.0f64);
    while seq.len() < MIN_PASSES || Instant::now() < passes_end {
        let pass = Pass::run(workload, 1, checks);
        check_identical(checks, "sequential", &first_json, &pass.reports);
        seq.push(pass.wall_s);

        let cpu0 = stats::cpu_seconds()?;
        let pass = Pass::run(workload, SHARD_THREADS, checks);
        sharded_cpu += stats::cpu_seconds()? - cpu0;
        sharded_wall += pass.wall_s;
        check_identical(checks, "sharded", &first_json, &pass.reports);
        sharded.push(pass.wall_s);

        let pass = traced_pass(workload, &first_json, checks);
        traced.push(pass.wall_s);
        setup_ms.push(pass.breakdown.setup_ns as f64 / 1e6);
        report_ms.push(pass.breakdown.report_ns as f64 / 1e6);
        accounted.0 += pass.breakdown.accounted_ns();
        accounted.1 += pass.wall_s;
        total.absorb(&pass.breakdown);
    }
    let rounds = traced.len() as f64;
    let accounted_pct = 100.0 * accounted.0 as f64 / 1e9 / accounted.1;
    checks.check(
        (95.0..=105.0).contains(&accounted_pct),
        first.issued(),
        || format!("traced self times account for {accounted_pct:.2} % of traced wall time"),
    );

    let shape = layers::RunShape {
        peak_depth: first
            .metrics
            .iter()
            .map(|m| m.peak_queue_depth)
            .max()
            .unwrap_or(0),
        event_gap: {
            let events: u64 = first.metrics.iter().map(|m| m.events).sum();
            let span: u64 = first.reports.iter().map(|r| r.duration.as_ps()).sum();
            venice_sim::Time::from_ps(span / events.max(1))
        },
    };
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let functions = layers::run(workload, shape, args.seed, deadline, MIN_PASSES);

    let traced_s: f64 = traced.iter().sum();
    let slot = |name: &str| {
        SLOT_NAMES
            .iter()
            .position(|s| *s == name)
            .expect("known slot")
    };
    let ns_per_hook = |s: usize| total.self_ns[s] as f64 / total.hooks[s].max(1) as f64;
    let pct = |s: usize| 100.0 * total.self_ns[s] as f64 / 1e9 / traced_s;
    let per_pass = |s: usize| total.hooks[s] as f64 / rounds;

    let reports = &first.reports;
    let sum = |f: &dyn Fn(&LoadReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let msum = |f: &dyn Fn(&EngineMetrics) -> u64| first.metrics.iter().map(f).sum::<u64>() as f64;
    let issued = sum(&|r| r.issued);
    let pushes = msum(&|m| m.queue.pushes());
    let grows = sum(&|r| r.lease.grows);
    let grow_attempts = grows + sum(&|r| r.lease.denials + r.lease.quota_denials);

    let mut metrics: Metrics = vec![
        ("engine.requests", issued),
        ("engine.events", msum(&|m| m.events)),
        ("engine.setup_ms", median(&setup_ms)),
        ("engine.report_ms", median(&report_ms)),
        ("engine.arrival_ns", ns_per_hook(slot("arrival"))),
        ("engine.fused_arrival_ns", ns_per_hook(FUSED)),
        ("engine.finish_ns", ns_per_hook(slot("finish"))),
        ("engine.fused_frac", msum(&|m| m.fused_arrivals) / issued),
        ("engine.arrival_pct", pct(slot("arrival"))),
        ("engine.fused_arrival_pct", pct(FUSED)),
        ("engine.finish_pct", pct(slot("finish"))),
        ("engine.lease_tick_pct", pct(slot("lease_tick"))),
        (
            "engine.lease_established_pct",
            pct(slot("lease_established")),
        ),
        ("engine.revoke_torndown_pct", pct(slot("revoke_torndown"))),
        ("engine.fault_tick_pct", pct(slot("fault_tick"))),
        ("engine.lease_ticks", per_pass(slot("lease_tick"))),
        (
            "engine.lease_establishes",
            per_pass(slot("lease_established")),
        ),
        ("engine.revoke_teardowns", per_pass(slot("revoke_torndown"))),
        ("engine.fault_ticks", per_pass(slot("fault_tick"))),
        (
            "trace.overhead_pct",
            100.0 * (median(&traced) / median(&seq) - 1.0),
        ),
        ("trace.accounted_pct", accounted_pct),
        ("queue.pushes", pushes),
        (
            "queue.near_hit_frac",
            msum(&|m| m.queue.near_hits) / pushes.max(1.0),
        ),
        ("queue.sifts", msum(&|m| m.queue.sifts())),
        ("queue.peak_depth", shape.peak_depth as f64),
        ("admission.admit_frac", sum(&|r| r.admitted) / issued),
        ("admission.shed_rate", sum(&|r| r.shed_rate)),
        ("admission.shed_overload", sum(&|r| r.shed_overload)),
        ("admission.shed_backpressure", sum(&|r| r.shed_backpressure)),
        ("admission.credit_waits", sum(&|r| r.credit_waits)),
        ("lease.grows", grows),
        ("lease.shrinks", sum(&|r| r.lease.shrinks)),
        ("lease.revokes", sum(&|r| r.lease.revokes)),
        ("lease.failovers", sum(&|r| r.lease.failovers)),
        ("lease.denials", sum(&|r| r.lease.denials)),
        ("lease.grow_ok_frac", grows / grow_attempts.max(1.0)),
        ("faults.shed_crash", sum(&|r| r.shed_crash)),
        ("sharded.speedup", median(&seq) / median(&sharded)),
        ("sharded.cpu_per_wall", sharded_cpu / sharded_wall),
        ("host.nproc", nproc() as f64),
        ("host.rayon_threads", SHARD_THREADS as f64),
    ];
    metrics.extend(functions);
    println!(
        "traced {} rounds: sequential {:.3} ms, sharded {:.3} ms, traced {:.3} ms (medians)",
        traced.len(),
        median(&seq) * 1e3,
        median(&sharded) * 1e3,
        median(&traced) * 1e3
    );
    Ok(metrics)
}

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Renders the result line, taking every metric of `catalogue` from
/// `metrics` in catalogue order.
fn result_line(
    checks: &Checks,
    catalogue: &[(&str, &str)],
    metrics: &Metrics,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let value = metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not a finite number ({value})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    if metrics.len() != catalogue.len() {
        return Err(format!(
            "measured {} metrics but the catalogue names {}",
            metrics.len(),
            catalogue.len()
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any thread exists: the rayon pool the sharded kernel fans
    // out on reads this on every parallel call.
    std::env::set_var("RAYON_NUM_THREADS", SHARD_THREADS.to_string());
    let Some(workload) = Workload::new(&args.workload, args.seed, args.smoke) else {
        eprintln!("perfbench: unknown workload `{}`\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let mut checks = Checks::default();
    let (catalogue, measured) = if args.trace {
        (&PER_LAYER[..], per_layer(&workload, &args, &mut checks))
    } else {
        (&END_TO_END[..], end_to_end(&workload, &args, &mut checks))
    };
    let line = measured.and_then(|metrics| result_line(&checks, catalogue, &metrics));
    match line {
        Ok(line) => {
            println!("{line}");
            if checks.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
