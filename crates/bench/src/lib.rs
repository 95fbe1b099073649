#![warn(missing_docs)]

//! Benchmark and figure-regeneration support for the Venice reproduction.
//!
//! The `figures` binary prints every reproduced table/figure (measured
//! next to the paper's published values) and can emit the same data as
//! JSON for EXPERIMENTS.md. The Criterion benches under `benches/` time
//! the scenario generators and the hot substrate paths.

use serde::{field, Deserialize, Serialize};
use serde_json::Value;
use venice::Figure;

pub mod golden;

/// Schema tag stamped into `BENCH_perf.json` so the validator can
/// reject artifacts written by an incompatible harness version. The
/// artifact carries a `scaling` section holding the sharded kernel's
/// 1/2/4/8-shard curve on the storm family, which must be complete
/// (see [`SCALING_WIDTHS`]).
pub const PERF_SCHEMA_V3: &str = "venice-perf-v3";

/// Shard widths the artifact's scaling curve must cover.
pub const SCALING_WIDTHS: &[u32] = &[1, 2, 4, 8];

/// Scenario families the wall-clock perf trajectory must cover. The
/// `throughput` bin times each family; a `BENCH_perf.json` missing a
/// family fails validation, so the trajectory can never silently lose
/// coverage.
pub const PERF_FAMILIES: &[&str] = &["storm", "elastic-v2"];

/// One timed scenario in `BENCH_perf.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfEntry {
    /// Scenario family (one of [`PERF_FAMILIES`]).
    pub family: String,
    /// Scenario label within the family (tenant mix or controller row).
    pub label: String,
    /// Requests issued by the run.
    pub requests: u64,
    /// Logical events the run processed.
    pub events: u64,
    /// Peak event-queue depth over the run.
    pub peak_queue_depth: u64,
    /// Best wall time of the typed event core, milliseconds.
    pub typed_wall_ms: f64,
    /// Typed-core events per wall-clock second.
    pub typed_events_per_sec: f64,
    /// Typed-core requests per wall-clock second.
    pub typed_requests_per_sec: f64,
}

/// One point of the sharded kernel's scaling curve: the same storm
/// configuration run through `Run::shards(n)` at one width. Every
/// width's report is byte-diffed against the single-shard report
/// before timing counts, so the curve can only measure runs that are
/// bit-identical in output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingEntry {
    /// Scenario family the curve was measured on (`storm`).
    pub family: String,
    /// Scenario label within the family (tenant mix).
    pub label: String,
    /// Shard width of this point (1 = the sequential engine).
    pub shards: u32,
    /// Best wall time at this width, milliseconds.
    pub wall_ms: f64,
    /// Logical events per wall-clock second at this width.
    pub events_per_sec: f64,
    /// `wall_ms(1 shard) / wall_ms(this width)` — wall-clock speedup
    /// over the sequential engine (1.0 by definition at width 1).
    pub speedup_vs_single: f64,
}

/// The whole `BENCH_perf.json` artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// [`PERF_SCHEMA_V3`].
    pub schema: String,
    /// Timing iterations per scenario (best-of-N wall time is kept).
    pub iters: u32,
    /// Per-run request override used for reduced smoke runs; `null` in
    /// the committed full-scale artifact.
    pub requests_override: Option<u64>,
    /// One row per timed scenario.
    pub entries: Vec<PerfEntry>,
    /// Sharded-kernel scaling curve.
    pub scaling: Vec<ScalingEntry>,
    /// Worker threads available to the recorder (`RAYON_NUM_THREADS`
    /// if set, else the machine's available parallelism). The
    /// scaling curve is only expected to show wall-clock speedup when
    /// this is ≥ 2 — a single-core recorder runs the shards
    /// back-to-back and can only measure the sharding overhead.
    pub threads: u32,
}

/// Validates a perf artifact: schema tag, every family of
/// [`PERF_FAMILIES`] present, the full scaling curve, and every row
/// internally sane (positive finite times and rates).
/// Returns human-readable problems (empty = valid). Deliberately does
/// **not** enforce a speedup floor: smoke runs on loaded CI machines
/// time whatever they time — the scaling floor is asserted on the
/// committed full-scale artifact by the test suite instead.
pub fn validate_perf(report: &PerfReport) -> Vec<String> {
    let mut problems = Vec::new();
    if report.schema != PERF_SCHEMA_V3 {
        problems.push(format!(
            "schema `{}` is not `{PERF_SCHEMA_V3}`",
            report.schema
        ));
    }
    for &width in SCALING_WIDTHS {
        if !report
            .scaling
            .iter()
            .any(|s| s.family == "storm" && s.shards == width)
        {
            problems.push(format!("scaling curve missing storm width {width}"));
        }
    }
    for s in &report.scaling {
        let tag = format!("scaling {}/{} @{}", s.family, s.label, s.shards);
        if s.shards == 0 {
            problems.push(format!("{tag}: zero shard width"));
        }
        for (name, x) in [
            ("wall_ms", s.wall_ms),
            ("events_per_sec", s.events_per_sec),
            ("speedup_vs_single", s.speedup_vs_single),
        ] {
            if !(x.is_finite() && x > 0.0) {
                problems.push(format!("{tag}: {name} = {x} is not positive finite"));
            }
        }
        // No speedup floor here: smoke runs on loaded machines time
        // whatever they time. The committed artifact's floor is
        // asserted by the test suite.
        if s.shards == 1 && (s.speedup_vs_single - 1.0).abs() > 1e-9 {
            problems.push(format!(
                "{tag}: width 1 must define speedup 1.0, got {}",
                s.speedup_vs_single
            ));
        }
    }
    if report.iters == 0 {
        problems.push("iters is zero".to_string());
    }
    if report.threads == 0 {
        problems.push("threads is zero (record the worker count)".to_string());
    }
    for &family in PERF_FAMILIES {
        if !report.entries.iter().any(|e| e.family == family) {
            problems.push(format!("missing scenario family `{family}`"));
        }
    }
    for e in &report.entries {
        let tag = format!("{}/{}", e.family, e.label);
        if !PERF_FAMILIES.contains(&e.family.as_str()) {
            problems.push(format!("{tag}: unregistered family"));
        }
        if e.requests == 0 || e.events == 0 {
            problems.push(format!("{tag}: empty run"));
        }
        for (name, x) in [
            ("typed_wall_ms", e.typed_wall_ms),
            ("typed_events_per_sec", e.typed_events_per_sec),
            ("typed_requests_per_sec", e.typed_requests_per_sec),
        ] {
            if !(x.is_finite() && x > 0.0) {
                problems.push(format!("{tag}: {name} = {x} is not positive finite"));
            }
        }
    }
    problems
}

/// Renders figures as text, one after another.
pub fn render_all(figures: &[Figure]) -> String {
    figures.iter().map(|f| f.render() + "\n").collect()
}

/// Serializes figures to pretty JSON.
///
/// # Panics
///
/// Panics if serialization fails (plain data; cannot fail in practice).
pub fn to_json(figures: &[Figure]) -> String {
    serde_json::to_string_pretty(figures).expect("figures serialize")
}

/// The paper's figure ids (and the ablations), in emission order.
pub const PAPER_FIGURE_IDS: &[&str] = &[
    "fig3",
    "fig5",
    "fig6",
    "fig14",
    "fig15",
    "fig16a",
    "fig16b",
    "fig17",
    "fig18",
    "table1",
    "cost",
    "validation",
    "ablation_policy",
    "ablation_mshrs",
    "ablation_credit_window",
    "ablation_tltlb",
    "ablation_contention",
    "ablation_double_buffering",
];

/// Every figure a full `figures` run must emit, in emission order: the
/// [`PAPER_FIGURE_IDS`], then the ids the loadgen family registry
/// declares. The `check-figures` binary gates CI on this list against
/// the committed `BENCH_figures.json`, in **both** directions: a figure
/// silently dropped from the generators fails, and a figure emitted
/// without being declared fails too — so the perf trajectory can never
/// lose coverage unnoticed.
pub fn expected_figure_ids() -> Vec<String> {
    let mut ids: Vec<String> = PAPER_FIGURE_IDS.iter().map(|id| id.to_string()).collect();
    ids.extend(venice_loadgen::scenarios::figure_ids());
    ids
}

/// Validates a committed figure artifact against
/// [`expected_figure_ids`]: every expected figure present with at least
/// one measured series (each with at least one value), and no
/// undeclared figures. Returns the list of human-readable problems
/// (empty = valid).
pub fn validate_figures(figures: &[Figure]) -> Vec<String> {
    let mut problems = Vec::new();
    let expected = expected_figure_ids();
    for id in &expected {
        match figures.iter().find(|f| &f.id == id) {
            None => problems.push(format!("missing figure family `{id}`")),
            Some(f) if f.measured.is_empty() => {
                problems.push(format!("figure `{id}` has no measured series"))
            }
            Some(f) => {
                for s in &f.measured {
                    if s.values.is_empty() {
                        problems.push(format!("figure `{id}` series `{}` is empty", s.label));
                    }
                }
            }
        }
    }
    for f in figures {
        if !expected.contains(&f.id) {
            problems.push(format!(
                "figure `{}` is not registered (declare it in PAPER_FIGURE_IDS or \
                 its loadgen family so it cannot be silently dropped later)",
                f.id
            ));
        }
    }
    problems
}

/// Schema tag of each block in `BENCH_telemetry.jsonl`.
pub const TELEMETRY_SCHEMA: &str = "venice-telemetry-v2";

/// Parses one JSONL line; a line that is not JSON reads as `null`, which
/// has no fields.
fn parse_line(line: &str) -> Value {
    serde_json::from_str(line).unwrap_or(Value::Null)
}

/// The span-label vocabulary of `venice-telemetry-v2`: the three lease
/// lifecycle phases plus the fault-injection pair (outage windows and
/// lease failovers).
pub const SPAN_LABELS: [&str; 5] = ["establish", "active", "teardown", "fault", "failover"];

/// Validates a `BENCH_telemetry.jsonl` artifact: one or more
/// `venice-telemetry-v2` blocks (the `profile` bin concatenates one per
/// scenario), each opening with a schema-tagged header, carrying exactly
/// one counters line, and closing with an end line whose sample/span
/// totals match the lines actually present. Span lines must use the
/// [`SPAN_LABELS`] vocabulary (v2 adds `fault` and `failover`), and a
/// fault span — an injected outage window — must carry its node and
/// start instant so the failover story is reconstructible from the
/// artifact alone. Returns human-readable problems (empty = valid).
pub fn validate_telemetry(jsonl: &str) -> Vec<String> {
    let mut problems = Vec::new();
    // (header line no, samples seen, spans seen, counters seen) of the
    // currently open block.
    let mut open: Option<(usize, u64, u64, u64)> = None;
    for (no, line) in jsonl.lines().enumerate() {
        let lineno = no + 1;
        let line = parse_line(line);
        let Ok(kind) = field::<String>(&line, "kind") else {
            problems.push(format!("line {lineno}: not a kind-tagged object"));
            continue;
        };
        match (kind.as_str(), &mut open) {
            ("header", Some(_)) => {
                problems.push(format!("line {lineno}: header inside an open block"));
                open = Some((lineno, 0, 0, 0));
            }
            ("header", None) => {
                if field::<String>(&line, "schema").as_deref() != Ok(TELEMETRY_SCHEMA) {
                    problems.push(format!(
                        "line {lineno}: header schema is not {TELEMETRY_SCHEMA}"
                    ));
                }
                open = Some((lineno, 0, 0, 0));
            }
            (_, None) => {
                problems.push(format!("line {lineno}: {kind} line outside any block"));
            }
            ("counters", Some((_, _, _, counters))) => *counters += 1,
            ("sample", Some((_, samples, _, _))) => *samples += 1,
            ("span", Some((_, _, spans, _))) => {
                *spans += 1;
                match field::<String>(&line, "span").as_deref() {
                    Ok(label) if SPAN_LABELS.contains(&label) => {
                        if matches!(label, "fault" | "failover")
                            && (field::<u64>(&line, "node").is_err()
                                || field::<u64>(&line, "start_ps").is_err())
                        {
                            problems.push(format!(
                                "line {lineno}: {label} span is missing node/start_ps"
                            ));
                        }
                    }
                    Ok(label) => {
                        problems.push(format!("line {lineno}: unknown span label `{label}`"));
                    }
                    Err(_) => problems.push(format!("line {lineno}: span line has no label")),
                }
            }
            ("end", Some((header, samples, spans, counters))) => {
                if *counters != 1 {
                    problems.push(format!(
                        "block at line {header}: {counters} counters lines (want 1)"
                    ));
                }
                if field::<u64>(&line, "samples") != Ok(*samples) {
                    problems.push(format!(
                        "line {lineno}: end.samples disagrees with {samples} sample line(s)"
                    ));
                }
                let span_total = field::<u64>(&line, "spans_closed")
                    .ok()
                    .zip(field::<u64>(&line, "spans_open").ok())
                    .map(|(c, o)| c + o);
                if span_total != Some(*spans) {
                    problems.push(format!(
                        "line {lineno}: end span counts disagree with {spans} span line(s)"
                    ));
                }
                open = None;
            }
            (other, Some(_)) => {
                problems.push(format!("line {lineno}: unknown kind `{other}`"));
            }
        }
    }
    if let Some((header, ..)) = open {
        problems.push(format!("block at line {header} is never closed"));
    }
    if jsonl.lines().next().is_none() {
        problems.push("artifact is empty".to_string());
    }
    problems
}

/// Validates a `BENCH_attrib.jsonl` artifact (`venice-attrib-v1`): a
/// single block whose header carries the schema tag and the stage
/// vocabulary, whose end line's run/cell/tenant counts match the lines
/// actually present — and whose every cell and tenant line satisfies the
/// exact-sum invariant (stage picoseconds summing to the recorded
/// total), re-checked here at the artifact level so a corrupted or
/// hand-edited artifact cannot pass. Returns human-readable problems
/// (empty = valid).
pub fn validate_attrib(jsonl: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let mut lines = jsonl.lines().enumerate();
    let header = lines.next();
    match header {
        None => {
            problems.push("artifact is empty".to_string());
            return problems;
        }
        Some((_, line)) => {
            let line = parse_line(line);
            if field::<String>(&line, "kind").as_deref() != Ok("header") {
                problems.push("line 1: artifact must open with a header".to_string());
            }
            let schema = venice_telemetry::ATTRIB_SCHEMA;
            if field::<String>(&line, "schema").as_deref() != Ok(schema) {
                problems.push(format!("line 1: header schema is not {schema}"));
            }
            // The stages array must name the full stage vocabulary.
            let stages = field::<Vec<String>>(&line, "stages").unwrap_or_default();
            for label in venice_telemetry::STAGE_LABELS {
                if !stages.iter().any(|s| s == label) {
                    problems.push(format!("line 1: header is missing stage `{label}`"));
                }
            }
        }
    }
    let (mut cells, mut tenants, mut ended) = (0u64, 0u64, false);
    for (no, line) in lines {
        let lineno = no + 1;
        if ended {
            problems.push(format!("line {lineno}: content after the end line"));
            break;
        }
        let line = parse_line(line);
        match field::<String>(&line, "kind").as_deref() {
            Ok("cell") => {
                cells += 1;
                match (
                    field::<Vec<u64>>(&line, "stage_ps"),
                    field::<u64>(&line, "total_ps"),
                ) {
                    (Ok(stages), Ok(total)) => {
                        if stages.iter().sum::<u64>() != total {
                            problems.push(format!(
                                "line {lineno}: cell stage_ps do not sum to total_ps"
                            ));
                        }
                        if stages.len() != venice_telemetry::STAGES {
                            problems
                                .push(format!("line {lineno}: cell has {} stages", stages.len()));
                        }
                    }
                    _ => problems.push(format!("line {lineno}: cell is missing stage fields")),
                }
            }
            Ok("tenant") => {
                tenants += 1;
                if field::<Vec<u64>>(&line, "tail_stage_ps")
                    .map(|v| v.len() != venice_telemetry::STAGES)
                    .unwrap_or(true)
                {
                    problems.push(format!("line {lineno}: tenant tail_stage_ps malformed"));
                }
            }
            Ok("shed") | Ok("diff") => {}
            Ok("end") => {
                if field::<u64>(&line, "cells") != Ok(cells) {
                    problems.push(format!(
                        "line {lineno}: end.cells disagrees with {cells} cell line(s)"
                    ));
                }
                if field::<u64>(&line, "tenants") != Ok(tenants) {
                    problems.push(format!(
                        "line {lineno}: end.tenants disagrees with {tenants} tenant line(s)"
                    ));
                }
                ended = true;
            }
            Ok("header") => problems.push(format!("line {lineno}: second header")),
            _ => problems.push(format!("line {lineno}: unknown or malformed line")),
        }
    }
    if !ended {
        problems.push("artifact has no end line".to_string());
    }
    problems
}

/// Selects figures by id; empty filter means all.
pub fn select(figures: Vec<Figure>, ids: &[String]) -> Vec<Figure> {
    if ids.is_empty() {
        return figures;
    }
    figures
        .into_iter()
        .filter(|f| ids.iter().any(|id| id.eq_ignore_ascii_case(&f.id)))
        .collect()
}

/// `values` in ascending order.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values` (the mean of the middle two for an even
/// count; NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the exclusive method, as perfbench
/// reports its own.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    if v.len() < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_json_cover_all_scenarios() {
        let figs = venice::scenarios::all();
        let text = render_all(&figs);
        for f in &figs {
            assert!(text.contains(&f.id), "missing {}", f.id);
        }
        let json = to_json(&figs);
        let back: Vec<Figure> = serde_json::from_str(&json).unwrap();
        assert_eq!(figs.len(), back.len());
    }

    #[test]
    fn loadgen_figures_render_and_round_trip() {
        let spec = venice_loadgen::SweepSpec {
            seed: 17,
            meshes: vec![(2, 1, 1)],
            mixes: vec![venice_loadgen::TenantMix::messaging()],
            rates_rps: vec![20_000.0],
            stacks: vec![venice_loadgen::RemoteStack::VeniceCrma],
            requests_per_point: 500,
        };
        let runs = venice_loadgen::scenarios::run_rows(spec.rows(), false);
        let figs = venice_loadgen::sweep::figures(&spec, &runs);
        let text = render_all(&figs);
        for f in &figs {
            assert!(text.contains(&f.id), "missing {}", f.id);
        }
        let back: Vec<Figure> = serde_json::from_str(&to_json(&figs)).unwrap();
        assert_eq!(figs, back);
    }

    #[test]
    fn telemetry_validator_accepts_real_blocks_and_rejects_corruption() {
        // A real artifact from a real probed run, concatenated twice —
        // the shape the profile bin writes.
        let config = venice_loadgen::LoadgenConfig {
            requests: 1_500,
            ..venice_loadgen::LoadgenConfig::new(7, venice_loadgen::TenantMix::messaging())
        };
        let block = venice_loadgen::engine::Run::new(&config)
            .recording(venice_sim::Time::from_ms(2), 64)
            .execute()
            .artifact_jsonl("unit");
        let artifact = format!("{block}{block}");
        assert_eq!(validate_telemetry(&artifact), Vec::<String>::new());
        // Truncating the final end line leaves a dangling block.
        let truncated: String = artifact
            .lines()
            .take(artifact.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate_telemetry(&truncated)
            .iter()
            .any(|p| p.contains("never closed")));
        // A doctored sample count must be caught.
        let doctored = artifact.replacen("\"kind\":\"sample\"", "\"kind\":\"sampleX\"", 1);
        assert!(!validate_telemetry(&doctored).is_empty());
        assert!(!validate_telemetry("").is_empty());
    }

    #[test]
    fn attrib_validator_enforces_the_exact_sum_at_the_artifact_level() {
        let config = venice_loadgen::LoadgenConfig {
            requests: 1_500,
            ..venice_loadgen::LoadgenConfig::new(7, venice_loadgen::TenantMix::messaging())
        };
        let labels = venice_loadgen::telemetry::tenant_labels(&config);
        let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
        let fold = venice_loadgen::engine::Run::new(&config)
            .attrib(venice_sim::Time::from_ms(2), 64)
            .execute()
            .attrib_fold();
        let artifact = venice_telemetry::export_attrib_jsonl(
            "unit",
            7,
            &[("a", &fold), ("b", &fold)],
            &labels,
        );
        assert_eq!(validate_attrib(&artifact), Vec::<String>::new());
        // Corrupt one cell's total: the artifact-level exact-sum check
        // must fire even though the in-process fold was consistent.
        let cell_line = artifact
            .lines()
            .find(|l| l.starts_with("{\"kind\":\"cell\""))
            .unwrap();
        let total = cell_line.split("\"total_ps\":").nth(1).unwrap();
        let total = &total[..total.find('}').unwrap()];
        let doctored = artifact.replacen(
            &format!("\"total_ps\":{total}}}"),
            &format!("\"total_ps\":{}}}", total.parse::<u64>().unwrap() + 1),
            1,
        );
        assert!(validate_attrib(&doctored)
            .iter()
            .any(|p| p.contains("do not sum")));
        // Dropping the end line, or a tenant line, must be caught.
        let no_end: String = artifact
            .lines()
            .filter(|l| !l.starts_with("{\"kind\":\"end\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate_attrib(&no_end)
            .iter()
            .any(|p| p.contains("no end line")));
        let no_tenant = artifact.replacen("\"kind\":\"tenant\"", "\"kind\":\"tenantX\"", 1);
        assert!(!validate_attrib(&no_tenant).is_empty());
    }

    /// A small probed run's telemetry artifact and its attribution fold,
    /// with the run's tenant labels.
    fn probed_run(scenario: &str) -> (String, venice_telemetry::AttribFold, Vec<String>) {
        let config = venice_loadgen::LoadgenConfig {
            requests: 1_500,
            ..venice_loadgen::LoadgenConfig::new(7, venice_loadgen::TenantMix::messaging())
        };
        let run = || venice_loadgen::engine::Run::new(&config);
        let tick = venice_sim::Time::from_ms(2);
        let telemetry = run().recording(tick, 64).execute().artifact_jsonl(scenario);
        let fold = run().attrib(tick, 64).execute().attrib_fold();
        (
            telemetry,
            fold,
            venice_loadgen::telemetry::tenant_labels(&config),
        )
    }

    #[test]
    fn labels_that_need_escaping_export_and_validate() {
        let scenario = "quote\" and \\ backslash";
        let (telemetry, fold, _) = probed_run(scenario);
        assert_eq!(validate_telemetry(&telemetry), Vec::<String>::new());
        let header: Value = serde_json::from_str(telemetry.lines().next().unwrap()).unwrap();
        assert_eq!(
            field::<String>(&header, "scenario").as_deref(),
            Ok(scenario)
        );

        let runs = ["run \"a\"", "run \\b"];
        let tenants = ["kv \"hot\"", "web\\static"];
        let attrib = venice_telemetry::export_attrib_jsonl(
            scenario,
            7,
            &[(runs[0], &fold), (runs[1], &fold)],
            &tenants,
        );
        assert_eq!(validate_attrib(&attrib), Vec::<String>::new());
        let lines: Vec<Value> = attrib
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(field::<Vec<String>>(&lines[0], "runs").unwrap(), runs);
        let tenant = lines
            .iter()
            .find(|l| field::<String>(l, "kind").as_deref() == Ok("tenant"))
            .unwrap();
        assert_eq!(field::<String>(tenant, "run").as_deref(), Ok(runs[0]));
        assert!(tenants.contains(&field::<String>(tenant, "tenant").unwrap().as_str()));
    }

    #[test]
    fn validators_read_top_level_fields_only() {
        // The same key names nested in an object before the real fields
        // must not shadow them.
        let (telemetry, fold, labels) = probed_run("unit");
        let nested = telemetry.replace(
            "{\"kind\":\"end\",",
            "{\"kind\":\"end\",\"note\":{\"samples\":0,\"spans_open\":99},",
        );
        assert_ne!(nested, telemetry);
        assert_eq!(validate_telemetry(&nested), Vec::<String>::new());

        let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
        let stage = venice_telemetry::STAGE_LABELS[0];
        let attrib = venice_telemetry::export_attrib_jsonl("unit", 7, &[(stage, &fold)], &labels);
        let nested = attrib.replace(
            "{\"kind\":\"cell\",",
            "{\"kind\":\"cell\",\"note\":{\"stage_ps\":[1],\"total_ps\":0},",
        );
        assert_ne!(nested, attrib);
        assert_eq!(validate_attrib(&nested), Vec::<String>::new());
        // A stage label that appears only as a string value elsewhere in
        // the header (here, the run label) is still missing from the
        // stages array.
        let dropped = attrib.replacen(&format!("\"stages\":[\"{stage}\","), "\"stages\":[", 1);
        assert_ne!(dropped, attrib);
        assert!(validate_attrib(&dropped)
            .iter()
            .any(|p| p.contains(&format!("missing stage `{stage}`"))));
    }

    #[test]
    fn expected_figure_ids_are_distinct_and_validated() {
        let expected = expected_figure_ids();
        let mut ids = expected.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), expected.len(), "duplicate ids");
        // A synthetic artifact covering every family passes; dropping a
        // family, emptying one, or adding an unregistered one fails.
        let mut figs: Vec<Figure> = expected
            .iter()
            .map(|id| {
                let mut f = Figure::new(id.clone(), "t", "m");
                f.add_measured(venice::Series::new("s", vec![1.0]));
                f
            })
            .collect();
        assert!(validate_figures(&figs).is_empty());
        let dropped = figs[1..].to_vec();
        assert!(validate_figures(&dropped)
            .iter()
            .any(|p| p.contains("missing")));
        figs[0].measured.clear();
        assert!(validate_figures(&figs)
            .iter()
            .any(|p| p.contains("no measured series")));
        figs[0].add_measured(venice::Series::new("s", vec![1.0]));
        figs.push(Figure::new("rogue", "t", "m"));
        assert!(validate_figures(&figs)
            .iter()
            .any(|p| p.contains("not registered")));
    }

    fn perf_entry(family: &str, label: &str) -> PerfEntry {
        PerfEntry {
            family: family.to_string(),
            label: label.to_string(),
            requests: 1_000,
            events: 2_500,
            peak_queue_depth: 40,
            typed_wall_ms: 10.0,
            typed_events_per_sec: 250_000.0,
            typed_requests_per_sec: 100_000.0,
        }
    }

    fn scaling_entry(shards: u32) -> ScalingEntry {
        ScalingEntry {
            family: "storm".to_string(),
            label: "web-frontend".to_string(),
            shards,
            wall_ms: 100.0 / shards as f64,
            events_per_sec: 250_000.0 * shards as f64,
            speedup_vs_single: shards as f64,
        }
    }

    /// A valid artifact: both families timed and the full storm curve.
    fn sane_report() -> PerfReport {
        PerfReport {
            schema: PERF_SCHEMA_V3.to_string(),
            iters: 3,
            requests_override: None,
            entries: vec![
                perf_entry("storm", "web-frontend"),
                perf_entry("elastic-v2", "venice-predictive"),
            ],
            scaling: SCALING_WIDTHS.iter().map(|&w| scaling_entry(w)).collect(),
            threads: 8,
        }
    }

    #[test]
    fn perf_validation_accepts_a_sane_artifact_and_round_trips() {
        let report = sane_report();
        assert_eq!(validate_perf(&report), Vec::<String>::new());
        // The artifact round-trips through JSON with its curve intact.
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        assert!(validate_perf(&back).is_empty());
    }

    #[test]
    fn perf_validation_catches_scaling_curve_problems() {
        let good = sane_report();
        // Dropping a width from the curve fails.
        let mut short = good.clone();
        short.scaling.retain(|s| s.shards != 4);
        assert!(validate_perf(&short)
            .iter()
            .any(|p| p.contains("missing storm width 4")));
        // Non-positive wall time fails.
        let mut wall = good.clone();
        wall.scaling[1].wall_ms = 0.0;
        assert!(validate_perf(&wall)
            .iter()
            .any(|p| p.contains("wall_ms") && p.contains("@2")));
        // Width 1 must define speedup exactly 1.0.
        let mut base = good;
        base.scaling[0].speedup_vs_single = 1.2;
        assert!(validate_perf(&base)
            .iter()
            .any(|p| p.contains("width 1 must define speedup 1.0")));
    }

    #[test]
    fn perf_validation_catches_coverage_and_sanity_problems() {
        let good = sane_report();
        // Dropping a family fails.
        let mut dropped = good.clone();
        dropped.entries.retain(|e| e.family != "elastic-v2");
        assert!(validate_perf(&dropped)
            .iter()
            .any(|p| p.contains("missing scenario family `elastic-v2`")));
        // A wrong schema tag fails, the retired v2 tag included.
        let mut schema = good.clone();
        schema.schema = "venice-perf-v2".to_string();
        assert!(validate_perf(&schema)
            .iter()
            .any(|p| p.contains("is not `venice-perf-v3`")));
        // A non-positive wall time fails.
        let mut wall = good.clone();
        wall.entries[0].typed_wall_ms = 0.0;
        assert!(validate_perf(&wall)
            .iter()
            .any(|p| p.contains("typed_wall_ms")));
        // An unregistered family fails.
        let mut rogue = good;
        rogue.entries.push(perf_entry("warmup", "x"));
        assert!(validate_perf(&rogue)
            .iter()
            .any(|p| p.contains("unregistered family")));
    }

    #[test]
    fn committed_perf_artifact_is_valid_and_clears_the_storm_bar() {
        // BENCH_perf.json is the recorded wall-clock trajectory; unlike
        // BENCH_figures.json it cannot be freshness-diffed (wall times
        // are machine-dependent), so this test pins the *committed*
        // numbers instead: the artifact must parse, validate, time the
        // storm at production scale, and show the sharded kernel beating
        // the sequential engine. A refresh that regresses below the bar
        // fails here and needs investigating, not committing.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
        let text = std::fs::read_to_string(path).expect("BENCH_perf.json is committed");
        let report: PerfReport = serde_json::from_str(&text).expect("artifact parses");
        assert_eq!(validate_perf(&report), Vec::<String>::new());
        assert_eq!(
            report.requests_override, None,
            "committed artifact must be full-scale"
        );
        let storm: Vec<&PerfEntry> = report
            .entries
            .iter()
            .filter(|e| e.family == "storm")
            .collect();
        assert!(storm.len() >= 3, "all three storm mixes recorded");
        let total: u64 = storm.iter().map(|e| e.requests).sum();
        assert!(total >= 1_000_000, "storm below production scale: {total}");
        // The committed artifact is v3: it must carry the sharded
        // kernel's full scaling curve. When the recording machine had
        // ≥ 2 worker threads, every parallel width must actually beat
        // the sequential engine; a single-core recorder runs the shard
        // workers back-to-back, so there the curve can only pin the
        // overhead bound — the two-phase split must stay within 25% of
        // sequential (byte-identity is gated unconditionally, in the
        // bin and in the conformance suites).
        assert_eq!(report.schema, PERF_SCHEMA_V3, "committed artifact is v3");
        for &width in SCALING_WIDTHS {
            let point = report
                .scaling
                .iter()
                .find(|s| s.family == "storm" && s.shards == width)
                .unwrap_or_else(|| panic!("scaling curve has storm width {width}"));
            if width < 2 {
                continue;
            }
            if report.threads >= 2 {
                assert!(
                    point.speedup_vs_single > 1.0,
                    "storm @{} shards: speedup {:.2} does not beat sequential \
                     on a {}-thread recorder",
                    width,
                    point.speedup_vs_single,
                    report.threads
                );
            } else {
                assert!(
                    point.speedup_vs_single > 0.75,
                    "storm @{} shards: {:.2}x on a single-core recorder — the \
                     sharding overhead exceeded the 25% bound",
                    width,
                    point.speedup_vs_single
                );
            }
        }
    }

    #[test]
    fn architecture_doc_covers_every_crate() {
        // The in-tree mirror of the CI docs guard: ARCHITECTURE.md's
        // workspace map must mention every directory under crates/ (and
        // the shims), so the contributor map can never silently rot as
        // the workspace grows.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let doc = std::fs::read_to_string(format!("{root}/ARCHITECTURE.md"))
            .expect("ARCHITECTURE.md is committed at the repo root");
        let mut missing = Vec::new();
        for entry in std::fs::read_dir(format!("{root}/crates")).expect("crates/ exists") {
            let entry = entry.expect("readable dir entry");
            if entry.file_type().expect("file type").is_dir() {
                let name = entry.file_name().into_string().expect("utf-8 crate name");
                // Anchored in backticks (the workspace-map cell format),
                // so a crate whose name merely prefixes another cannot
                // satisfy the guard.
                if !doc.contains(&format!("`crates/{name}`")) {
                    missing.push(name);
                }
            }
        }
        assert!(
            missing.is_empty(),
            "ARCHITECTURE.md does not mention crates/{{{}}} — add the new crate(s) \
             to the workspace map",
            missing.join(", ")
        );
        assert!(doc.contains("shims/"), "the shims story is part of the map");
    }

    #[test]
    fn select_filters_case_insensitively() {
        let figs = venice::scenarios::all();
        let total = figs.len();
        let picked = select(figs.clone(), &["FIG5".to_string()]);
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].id, "fig5");
        assert_eq!(select(figs, &[]).len(), total);
    }
}
