//! The golden corpus, `BENCH_golden.jsonl`: the committed bytes the
//! traffic engine must keep reproducing.
//!
//! One JSON object per line, in this order:
//!
//! * `family` — every row of [`scenarios::FAMILIES`] at its
//!   `gate_requests` and the gate seed `0xD17E`, run traced with its
//!   fault plan, holding the full report JSON. The `elastic-v2` /
//!   `venice-predictive` line is the traced run whose trace the
//!   determinism gate used to print in full;
//! * `open-loop` and `elastic-bursty` — 64 generated configurations
//!   each, drawn from the proptest shim's deterministic case streams
//!   ([`TestRng::for_case`]) by the strategies below. Each `open-loop`
//!   line also pins the replay of its own trace;
//! * `preset` — the three preset mixes at 2,000 requests, and `small` —
//!   3,000 web-frontend requests at seed 77, with its replay;
//! * `sweep` — the figure JSON of a small rate sweep, whose points also
//!   run at four shards.
//!
//! Every run line carries its configuration's seed, mix, request count
//! and arrival parameters, so it can be re-run by hand; the logical
//! event count; the wrapping sum of its completions' latencies in
//! picoseconds, which sees changes the nanosecond trace and the
//! bucketed report round away; the execution path at four shards; and
//! the FNV-1a hash and record count of the trace JSONL. Generated lines hold the report
//! JSON's hash in place of the report.
//!
//! [`corpus`] runs every configuration, the sweep's included, at one
//! shard and at four shards and fails if the two differ in any pinned
//! byte. The `determinism` bin writes the corpus; CI regenerates it at
//! one and at eight rayon threads and `git diff`s it against the
//! committed file, as `golden_corpus_is_fresh` does under `cargo test`.
//! A change to the engine's bytes is therefore a reviewed diff of the
//! corpus.

use proptest::{Strategy, TestRng};
use rayon::prelude::*;
use serde::Compound;
use venice_loadgen::scenarios::{self, RowRun};
use venice_loadgen::sweep::{self, SweepSpec};
use venice_loadgen::trace::fnv1a;
use venice_loadgen::{
    ArrivalProcess, ExecPath, FaultPlan, LeaseConfig, LoadgenConfig, RemoteStack, Run, RunOutput,
    TenantMix,
};
use venice_sim::Time;
use venice_telemetry::jsonl_line;

/// Seed of every registry row in the corpus (distinct from every
/// published figure seed).
const GATE_SEED: u64 = 0xD17E;

/// The shard width each configuration runs at next to one shard.
const SHARD_WIDTH: usize = 4;

/// Generated configurations per case stream.
const CASES: u64 = 64;

/// A 64-bit hash as the corpus writes it.
fn hex(hash: u64) -> String {
    format!("0x{hash:016x}")
}

/// The opening fields of a run line, which no other line shares.
#[derive(Debug)]
enum Key {
    /// A registry row.
    Family { family: &'static str, row: String },
    /// A configuration of a case stream or a fixed list.
    Generated { kind: &'static str, case: u64 },
}

impl Key {
    fn write(&self, o: &mut Compound<'_, '_>) {
        match self {
            Key::Family { family, row } => {
                o.field("kind", "family");
                o.field("family", *family);
                o.field("row", row);
            }
            Key::Generated { kind, case } => {
                o.field("kind", *kind);
                o.field("case", case);
            }
        }
    }
}

/// One run line of the corpus, before it ran.
struct Entry {
    key: Key,
    config: LoadgenConfig,
    plan: Option<FaultPlan>,
    /// Whether the line also pins the replay of the run's own trace.
    replay: bool,
    /// Whether the line holds the full report JSON or only its hash.
    full_report: bool,
}

impl Entry {
    fn generated(kind: &'static str, case: u64, config: LoadgenConfig, replay: bool) -> Self {
        Entry {
            key: Key::Generated { kind, case },
            config,
            plan: None,
            replay,
            full_report: false,
        }
    }

    fn line(&self) -> Result<String, String> {
        let (out, pinned, path) = at_both_widths(&format!("{:?}", self.key), |w| {
            let mut run = Run::new(&self.config).traced().shards(w);
            if let Some(plan) = &self.plan {
                run = run.faults(plan.clone());
            }
            run.execute()
        })?;
        let (trace_fnv, records) = pinned.trace.expect("corpus runs are traced");
        let replayed = if self.replay {
            let trace = out.trace.as_ref().expect("corpus runs are traced");
            let (_, replayed, _) = at_both_widths(&format!("{:?} replay", self.key), |w| {
                Run::new(&self.config).replay(trace).shards(w).execute()
            })?;
            Some(replayed)
        } else {
            None
        };
        let mut line = String::new();
        jsonl_line(&mut line, |o| {
            self.key.write(o);
            params(&self.config, o);
            o.field("exec_path", &format!("{path:?}"));
            o.field("events", &pinned.events);
            o.field("latency_ps", &pinned.latency_ps);
            o.field("trace_records", &records);
            o.field("trace_fnv", &hex(trace_fnv));
            if let Some(replayed) = &replayed {
                o.field("replay_events", &replayed.events);
                o.field("replay_latency_ps", &replayed.latency_ps);
                o.field("replay_report_fnv", &hex(fnv1a(replayed.report.as_bytes())));
            }
            if self.full_report {
                o.field("report", &out.report);
            } else {
                o.field("report_fnv", &hex(fnv1a(pinned.report.as_bytes())));
            }
        });
        Ok(line)
    }
}

/// Writes the seed, mix, request count and arrival parameters of
/// `config`.
fn params(config: &LoadgenConfig, o: &mut Compound<'_, '_>) {
    o.field("seed", &config.seed);
    o.field("mix", &config.mix.name);
    o.field("requests", &config.requests);
    match config.arrival {
        ArrivalProcess::OpenPoisson { rate_rps } => o.field("rate_rps", &rate_rps),
        ArrivalProcess::Bursty {
            base_rps,
            burst_rps,
            crowd_share,
            ..
        } => {
            o.field("base_rps", &base_rps);
            o.field("burst_rps", &burst_rps);
            o.field("crowd_share", &crowd_share);
        }
    }
    o.field("lease", &config.lease.is_some());
}

/// What a run produced, reduced to the bytes the corpus pins.
#[derive(PartialEq)]
struct Pinned {
    report: String,
    /// Trace JSONL hash and record count.
    trace: Option<(u64, usize)>,
    events: u64,
    /// Wrapping sum of the completions' latencies in picoseconds.
    latency_ps: u64,
}

/// Runs `run` at one shard and at `SHARD_WIDTH` shards. Returns the
/// one-shard output and its pinned bytes, and the wider run's execution
/// path, or an error naming `what` if the two outputs differ.
fn at_both_widths(
    what: &str,
    run: impl Fn(usize) -> RunOutput,
) -> Result<(RunOutput, Pinned, ExecPath), String> {
    let pin = |out: &RunOutput| Pinned {
        report: serde_json::to_string(&out.report).expect("report serializes"),
        trace: out
            .trace
            .as_ref()
            .map(|t| (fnv1a(t.to_jsonl().as_bytes()), t.len())),
        events: out.metrics.events,
        latency_ps: out.metrics.latency_ps,
    };
    let one = run(1);
    let wide = run(SHARD_WIDTH);
    let pinned = pin(&one);
    if pin(&wide) != pinned {
        return Err(format!(
            "{what}: the {SHARD_WIDTH}-shard run ({:?}) diverged from one shard",
            wide.exec_path
        ));
    }
    Ok((one, pinned, wide.exec_path))
}

/// Open-loop Poisson runs: any seed, mix and rate. The strategies and
/// their order are those of the differential property test the cases
/// were first drawn for, so the lines pin exactly the configurations it
/// checked.
fn open_loop(rng: &mut TestRng) -> LoadgenConfig {
    let seed = (0u64..100_000).sample(rng);
    let rate_rps = (2_000.0f64..400_000.0).sample(rng);
    let requests = (100u64..600).sample(rng);
    let mix = TenantMix::presets().swap_remove((0usize..3).sample(rng));
    LoadgenConfig {
        arrival: ArrivalProcess::OpenPoisson { rate_rps },
        requests,
        ..LoadgenConfig::new(seed, mix)
    }
}

/// Elastic runs under bursty traffic, with donor revokes and the
/// predictive horizon armed.
fn elastic_bursty(rng: &mut TestRng) -> LoadgenConfig {
    let seed = (0u64..100_000).sample(rng);
    let base_rps = (2_000.0f64..20_000.0).sample(rng);
    let burst_rps = (60_000.0f64..200_000.0).sample(rng);
    let crowd_share = (0.0f64..1.0).sample(rng);
    LoadgenConfig {
        arrival: ArrivalProcess::Bursty {
            base_rps,
            burst_rps,
            period: Time::from_ms(300),
            burst_len: Time::from_ms(120),
            crowd_users: 4,
            crowd_share,
        },
        requests: 2_500,
        lease: Some(LeaseConfig {
            donor_high_watermark: 12,
            revoke_cooldown_ticks: 40,
            predict_horizon_ticks: 33,
            ..LeaseConfig::default()
        }),
        ..LoadgenConfig::new(seed, TenantMix::web_frontend())
    }
}

/// Every run line of the corpus, in line order.
fn entries() -> Vec<Entry> {
    let mut entries = Vec::new();
    for family in scenarios::FAMILIES {
        for (label, config, plan) in family.rows_at(GATE_SEED, family.gate_requests) {
            entries.push(Entry {
                key: Key::Family {
                    family: family.id,
                    row: label,
                },
                config,
                plan,
                replay: false,
                full_report: true,
            });
        }
    }
    // The case streams are named after the property tests that first
    // drew them.
    for case in 0..CASES {
        let mut rng = TestRng::for_case("typed_and_legacy_agree_on_open_loop_runs", case);
        entries.push(Entry::generated(
            "open-loop",
            case,
            open_loop(&mut rng),
            true,
        ));
    }
    for case in 0..CASES {
        let mut rng = TestRng::for_case("typed_and_legacy_agree_on_elastic_bursty_runs", case);
        entries.push(Entry::generated(
            "elastic-bursty",
            case,
            elastic_bursty(&mut rng),
            false,
        ));
    }
    for (i, mix) in TenantMix::presets().into_iter().enumerate() {
        let config = LoadgenConfig {
            arrival: ArrivalProcess::OpenPoisson {
                rate_rps: 30_000.0 + 40_000.0 * i as f64,
            },
            requests: 2_000,
            ..LoadgenConfig::new(0xD1FF + i as u64, mix)
        };
        entries.push(Entry::generated("preset", i as u64, config, false));
    }
    let small = LoadgenConfig {
        requests: 3_000,
        ..LoadgenConfig::new(77, TenantMix::web_frontend())
    };
    entries.push(Entry::generated("small", 0, small, true));
    entries
}

/// Builds the corpus, its run lines on rayon; the text is the same at
/// any thread count.
///
/// # Errors
///
/// Names the first configuration whose `SHARD_WIDTH`-shard run
/// differs from its one-shard run, sweep points included.
pub fn corpus() -> Result<String, String> {
    let lines: Vec<Result<String, String>> = entries().into_par_iter().map(|e| e.line()).collect();
    let mut corpus = String::new();
    for line in lines {
        corpus.push_str(&line?);
    }
    let sweep = SweepSpec {
        seed: GATE_SEED,
        meshes: vec![(2, 2, 1)],
        mixes: vec![TenantMix::web_frontend(), TenantMix::messaging()],
        rates_rps: vec![10_000.0, 60_000.0],
        stacks: vec![RemoteStack::VeniceCrma, RemoteStack::Sonuma],
        requests_per_point: 1_500,
    };
    // The figures are built from the one-shard runs of the width
    // check, so every sweep point runs twice in all.
    let mut runs = Vec::new();
    for (i, (label, config, _)) in sweep.rows().into_iter().enumerate() {
        let (one, _, _) = at_both_widths(&format!("sweep point {i}"), |w| {
            Run::new(&config).shards(w).execute()
        })?;
        runs.push(RowRun {
            label,
            config,
            report: one.report,
            trace: one.trace,
        });
    }
    jsonl_line(&mut corpus, |o| {
        o.field("kind", "sweep");
        o.field("figures", &sweep::figures(&sweep, &runs));
    });
    Ok(corpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_corpus_is_fresh() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_golden.jsonl");
        let committed = std::fs::read_to_string(path).expect("BENCH_golden.jsonl is committed");
        let fresh = corpus().expect("every line agrees across shard widths");
        for (i, (want, got)) in committed.lines().zip(fresh.lines()).enumerate() {
            if want != got {
                // Show the lines from a little before their first
                // differing byte.
                let at = want
                    .bytes()
                    .zip(got.bytes())
                    .take_while(|(a, b)| a == b)
                    .count();
                let from = |l: &str| -> String {
                    let tail = String::from_utf8_lossy(&l.as_bytes()[at.saturating_sub(80)..]);
                    tail.chars().take(160).collect()
                };
                panic!(
                    "line {} of BENCH_golden.jsonl is stale at byte {at}; regenerate it \
                     with `cargo run --release -p venice-bench --bin determinism -- --out \
                     BENCH_golden.jsonl`\ncommitted: {}\nfresh:     {}",
                    i + 1,
                    from(want),
                    from(got)
                );
            }
        }
        assert_eq!(
            fresh.lines().count(),
            committed.lines().count(),
            "BENCH_golden.jsonl has a stale line count"
        );
    }
}
