//! Regenerates every table and figure of the paper's evaluation, plus the
//! loadgen scenario family.
//!
//! ```text
//! figures [--json[=PATH]] [--no-loadgen] [FIGURE_ID...]
//! ```
//!
//! `--help` lists the ids: the paper's, then the ones the loadgen family
//! registry declares. An id filter simulates only the loadgen families
//! that declare a selected id.
//!
//! With no arguments, prints all figures as aligned text tables (measured
//! values next to the paper's published values where the paper reports
//! any). A full run (no filter, loadgen included) writes the structured
//! data to `BENCH_figures.json` so successive PRs accumulate a
//! machine-readable perf trajectory; filtered runs leave that artifact
//! untouched. `--json=PATH` writes a copy of whatever was selected.

use std::process::ExitCode;

/// Appends a text-only engine-metrics table (events executed, lookahead
/// fusion rate, peak event-queue depth, share of pushes into the event
/// queue's sorted run, slab occupancy) for a reduced-count run of each storm mix. Deliberately
/// not part of the JSON artifact: these are loop-level counters, and
/// `BENCH_figures.json`'s shape is frozen by the freshness diff.
fn print_engine_metrics() {
    use venice_loadgen::{engine, scenarios};

    println!("\n== engine metrics (storm mixes, 40k requests each) ==");
    println!(
        "{:<16} {:>10} {:>10} {:>7} {:>11} {:>9} {:>11}",
        "mix", "events", "fused", "fused%", "peak depth", "run-push%", "slab"
    );
    let storm = scenarios::family("storm");
    for (_, config, _) in storm.rows_at(storm.seed, 40_000) {
        let m = engine::Run::new(&config).execute().metrics;
        let pushes = m.queue.near_hits + m.queue.heap_pushes;
        println!(
            "{:<16} {:>10} {:>10} {:>6.1}% {:>11} {:>8.1}% {:>11}",
            config.mix.name,
            m.events,
            m.fused_arrivals,
            m.fused_arrivals as f64 * 100.0 / m.events.max(1) as f64,
            m.peak_queue_depth,
            m.queue.near_hits as f64 * 100.0 / pushes.max(1) as f64,
            format!("{}/{}", m.slab.0, m.slab.1),
        );
    }
}

/// The figure ids a filter can name: the paper's, then the ones the
/// loadgen family registry declares.
fn known_ids() -> String {
    format!(
        "paper ids: {}\nloadgen ids: {}",
        venice_bench::PAPER_FIGURE_IDS.join(" "),
        venice_loadgen::scenarios::figure_ids().join(" ")
    )
}

fn main() -> ExitCode {
    let mut json_path: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut loadgen = true;
    for arg in std::env::args().skip(1) {
        if arg == "--json" {
            json_path = Some("figures.json".to_string());
        } else if let Some(p) = arg.strip_prefix("--json=") {
            json_path = Some(p.to_string());
        } else if arg == "--no-loadgen" {
            loadgen = false;
        } else if arg == "--help" || arg == "-h" {
            println!(
                "usage: figures [--json[=PATH]] [--no-loadgen] [FIGURE_ID...]\n{}",
                known_ids()
            );
            return ExitCode::SUCCESS;
        } else {
            ids.push(arg);
        }
    }
    let mut all = venice::scenarios::all();
    if loadgen {
        all.extend(venice_loadgen::scenarios::figures(&ids));
    }
    let figures = venice_bench::select(all, &ids);
    if figures.is_empty() {
        eprintln!("no figures match {ids:?}\n{}", known_ids());
        return ExitCode::FAILURE;
    }
    print!("{}", venice_bench::render_all(&figures));
    let mismatches: Vec<(String, Vec<String>)> = figures
        .iter()
        .map(|f| (f.id.clone(), f.ordering_mismatches()))
        .filter(|(_, m)| !m.is_empty())
        .collect();
    if mismatches.is_empty() {
        println!("shape check: all measured series match the paper's orderings");
    } else {
        println!("shape check FAILURES: {mismatches:?}");
    }
    if loadgen {
        print_engine_metrics();
    }
    // The canonical machine-readable artifact, anchored to the repo root
    // regardless of the invocation CWD. Only a full run (no id filter,
    // loadgen included) may regenerate it — a filtered invocation must
    // not clobber the complete trajectory with a subset.
    if ids.is_empty() && loadgen {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_figures.json");
        std::fs::write(&path, venice_bench::to_json(&figures)).expect("write BENCH_figures.json");
        println!("wrote {}", path.display());
    }
    if let Some(path) = json_path {
        std::fs::write(&path, venice_bench::to_json(&figures)).expect("write json");
        println!("wrote {path}");
    }
    if mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
