//! Hot-path profiles and the `venice-telemetry-v2` artifact.
//!
//! ```text
//! profile [--out PATH] [--requests N] [--tick-ms T] [--cap N]
//!         [--iters K] [--gate-overhead PCT]
//! ```
//!
//! Runs the storm scenarios (three tenant mixes), the elastic-v2
//! predictive controller, the economy quota-market scenario, and the
//! failover chaos scenario (a mid-run node crash, so the artifact
//! carries fault and failover spans) with a
//! [`venice_telemetry::RecordingProbe`] threaded through the engine,
//! then:
//!
//! * prints each scenario's text profile (top event kinds by count and
//!   attributed sim time, queue traffic, per-node utilization, lease
//!   span summary);
//! * **gates** every probed run against a no-op-probe run of the same
//!   configuration — the two `LoadReport`s must serialize to
//!   byte-identical JSON, or observing the run perturbed it and the run
//!   fails;
//! * concatenates the per-scenario `venice-telemetry-v2` JSONL blocks
//!   into `BENCH_telemetry.jsonl` (CI regenerates a reduced-count copy
//!   at rayon widths 1 and 8 and byte-compares them).
//!
//! With `--gate-overhead PCT`, the no-op and probed runs are also timed
//! in `--iters` interleaved pairs, alternating which side runs first,
//! and the run fails if the median of the per-pair probed/no-op ratios
//! of on-CPU time exceeds 1 by more than `PCT` percent — the "cheap
//! enough to leave on" claim, measured. The time is the calling
//! thread's, read from `/proc/thread-self/schedstat`: a run of one
//! world does all its work there unless a fill helper starts, and at
//! `RAYON_NUM_THREADS=1` none does. On-CPU time leaves out the time the
//! thread waits for a core, which wall time on a loaded machine counts;
//! the median keeps one noisy pair from deciding the gate. The gate
//! fails, naming the file, if it cannot be read.
//!
//! Sampling cadence is `--tick-ms` (sim time) with a ring retaining the
//! last `--cap` rows per scenario, so artifact size is bounded no
//! matter the request count. The committed artifact is the default
//! run's output (`cargo run --release -p venice-bench --bin profile`);
//! its bytes are machine-independent, and CI regenerates it at full
//! scale and `git diff --exit-code`s it, so an engine change that moves
//! the event flow or lease attribution must re-commit it.

use std::process::ExitCode;
use std::thread;

use venice_bench::median;
use venice_loadgen::telemetry::EVENT_KIND_LABELS;
use venice_loadgen::{engine, scenarios, FaultPlan, LoadgenConfig};
use venice_sim::Time;
use venice_telemetry::export_jsonl;

/// Default timing pairs for the overhead gate.
const DEFAULT_ITERS: u32 = 9;
/// Default sim-time sampling tick, in milliseconds.
const DEFAULT_TICK_MS: u64 = 25;
/// Default ring capacity (retained sample rows per scenario).
const DEFAULT_CAP: usize = 48;

struct Args {
    out: Option<String>,
    requests: Option<u64>,
    tick_ms: u64,
    cap: usize,
    iters: u32,
    gate_overhead_pct: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: None,
        requests: None,
        tick_ms: DEFAULT_TICK_MS,
        cap: DEFAULT_CAP,
        iters: DEFAULT_ITERS,
        gate_overhead_pct: None,
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
            "--tick-ms" => {
                args.tick_ms = take("--tick-ms")?
                    .parse()
                    .map_err(|e| format!("--tick-ms: {e}"))?;
                if args.tick_ms == 0 {
                    return Err("--tick-ms must be at least 1".to_string());
                }
            }
            "--cap" => {
                args.cap = take("--cap")?.parse().map_err(|e| format!("--cap: {e}"))?;
                if args.cap == 0 {
                    return Err("--cap must be at least 1".to_string());
                }
            }
            "--iters" => {
                args.iters = take("--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?;
                if args.iters == 0 {
                    return Err("--iters must be at least 1".to_string());
                }
            }
            "--gate-overhead" => {
                args.gate_overhead_pct = Some(
                    take("--gate-overhead")?
                        .parse()
                        .map_err(|e| format!("--gate-overhead: {e}"))?,
                )
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}`\n\
                     usage: profile [--out PATH] [--requests N] [--tick-ms T] \
                     [--cap N] [--iters K] [--gate-overhead PCT]"
                ))
            }
        }
    }
    Ok(args)
}

/// The scenario grid, `(scenario, family, row label)` of the loadgen
/// registry: every control path the probe can light up — static storms
/// (pure event-core traffic), the predictive lease controller
/// (grow/establish/shrink spans), the quota market (denials, subleases,
/// teardowns), and the failover chaos run (fault and failover spans
/// through a mid-run node crash).
const GRID: &[(&str, &str, &str)] = &[
    ("storm-web-frontend", "storm", "web-frontend"),
    ("storm-analytics", "storm", "analytics"),
    ("storm-messaging", "storm", "messaging"),
    ("elastic-v2-predictive", "elastic-v2", "venice-predictive"),
    ("economy-market", "economy", "market"),
    ("failover-crash", "failover", "elastic-failover"),
];

/// Starts a run with the scenario's fault plan (if any) armed — both
/// sides of the perturbation gate carry the same chaos.
fn start_run<'c>(config: &'c LoadgenConfig, plan: &Option<FaultPlan>) -> engine::Run<'c, 'static> {
    let mut run = engine::Run::new(config);
    if let Some(plan) = plan {
        run = run.faults(plan.clone());
    }
    run
}

/// Where the calling thread's on-CPU time is read from.
const SCHEDSTAT: &str = "/proc/thread-self/schedstat";

/// The calling thread's on-CPU time in nanoseconds, the first field of
/// [`SCHEDSTAT`]. The kernel brings that field up to date only at
/// scheduler events, at worst once a timer tick (4 ms at 250 Hz), so
/// this yields first: the yield is such an event.
fn thread_cpu_ns() -> Result<u64, String> {
    thread::yield_now();
    let text =
        std::fs::read_to_string(SCHEDSTAT).map_err(|e| format!("cannot read {SCHEDSTAT}: {e}"))?;
    text.split_whitespace()
        .next()
        .and_then(|field| field.parse().ok())
        .ok_or_else(|| format!("{SCHEDSTAT}: no on-CPU time in {text:?}"))
}

/// One call of `f`, with the calling thread's on-CPU milliseconds over
/// it when `timed` (and 0 otherwise).
fn run_once<T>(timed: bool, f: impl FnOnce() -> T) -> Result<(f64, T), String> {
    if !timed {
        return Ok((0.0, f()));
    }
    let start = thread_cpu_ns()?;
    let r = f();
    let ns = thread_cpu_ns()?.saturating_sub(start);
    Ok((ns as f64 / 1e6, r))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("profile: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tick = Time::from_ms(args.tick_ms);

    let mut artifact = String::new();
    let mut worst_overhead_pct = f64::NEG_INFINITY;
    for &(scenario, family, label) in GRID {
        let (_, mut config, plan) = scenarios::row(family, label);
        if let Some(n) = args.requests {
            config.requests = n;
        }
        let start = |config| start_run(config, &plan);

        // Timing pairs run back to back, the no-op side first in even
        // pairs and second in odd ones, so neither side always runs
        // into a warm or a freshly loaded machine. The reports come
        // from the final pair; every pair is bit-identical.
        let timed = args.gate_overhead_pct.is_some();
        let iters = if timed { args.iters } else { 1 };
        let mut cpu = Vec::with_capacity(iters as usize);
        let mut noop_report = None;
        let mut probed = None;
        for i in 0..iters {
            let noop = || run_once(timed, || start(&config).execute().report);
            let probe = || run_once(timed, || start(&config).recording(tick, args.cap).execute());
            let pair = if i.is_multiple_of(2) {
                noop().and_then(|n| Ok((n, probe()?)))
            } else {
                probe().and_then(|p| Ok((noop()?, p)))
            };
            let ((noop_ms, r), (probed_ms, out)) = match pair {
                Ok(pair) => pair,
                Err(e) => {
                    eprintln!("profile: probe overhead gate FAILED: {e}");
                    return ExitCode::FAILURE;
                }
            };
            cpu.push((noop_ms, probed_ms));
            noop_report = Some(r);
            probed = Some((out.profile_text(scenario), out.report, out.probe));
        }
        let noop_report = noop_report.expect("iters >= 1");
        let (text, probed_report, probe) = probed.expect("iters >= 1");

        // The perturbation gate: a probed run must report *exactly*
        // what a no-op run reports, byte for byte.
        let noop_json = serde_json::to_string(&noop_report).expect("report serializes");
        let probed_json = serde_json::to_string(&probed_report).expect("report serializes");
        if noop_json != probed_json {
            eprintln!(
                "profile: {scenario}: probed run diverged from the no-op run \
                 (no-op {} bytes, probed {} bytes)",
                noop_json.len(),
                probed_json.len()
            );
            return ExitCode::FAILURE;
        }

        print!("{text}");
        println!(
            "gate: probed report matches the no-op report byte for byte ({} bytes)",
            noop_json.len()
        );
        if timed {
            let ratios: Vec<f64> = cpu.iter().map(|(noop, probed)| probed / noop).collect();
            let ratio = median(&ratios);
            let overhead_pct = (ratio - 1.0) * 100.0;
            worst_overhead_pct = worst_overhead_pct.max(overhead_pct);
            println!(
                "timing: median on-CPU no-op {:.1} ms, probed {:.1} ms, per-pair ratio \
                 {ratio:.3} (overhead {overhead_pct:+.1}%, median of {iters} pairs)",
                median(&cpu.iter().map(|c| c.0).collect::<Vec<_>>()),
                median(&cpu.iter().map(|c| c.1).collect::<Vec<_>>()),
            );
        }
        println!();

        // Export from the probe we already have rather than re-running
        // through `RunOutput::artifact_jsonl` — same rendering path,
        // identical bytes (the loadgen tests pin that equivalence).
        artifact.push_str(&export_jsonl(
            scenario,
            config.seed,
            &probe,
            &EVENT_KIND_LABELS,
        ));
    }

    if let Some(limit) = args.gate_overhead_pct {
        if worst_overhead_pct > limit {
            eprintln!(
                "profile: probe overhead gate FAILED: worst {worst_overhead_pct:+.1}% \
                 exceeds the {limit}% budget"
            );
            return ExitCode::FAILURE;
        }
        println!("overhead gate: worst {worst_overhead_pct:+.1}% within the {limit}% budget");
    }

    let path = args
        .out
        .unwrap_or_else(|| "BENCH_telemetry.jsonl".to_string());
    if let Err(e) = std::fs::write(&path, &artifact) {
        eprintln!("profile: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path} ({} lines)", artifact.lines().count());
    ExitCode::SUCCESS
}
