//! The engine-throughput benchmark behind `repro bench`.
//!
//! The benchmark replays one workload (cassandra, miss-derived plan touching
//! all four prefetch-op kinds) through [`ispy_sim::run`] in seven replay
//! configurations, then times the incremental replanner on the same
//! workload:
//!
//! | row               | what it pays for                                    |
//! |-------------------|-----------------------------------------------------|
//! | `baseline`        | bare replay, no injections                          |
//! | `injected`        | plan lowering + injected replay (one-shot cost)     |
//! | `injected_replay` | injected replay of a *pre-compiled* plan — the pure |
//! |                   | replay tax the sweeps pay per configuration         |
//! | `injected_ledger` | pre-compiled replay + per-injection outcome ledger  |
//! | `hw_prefetcher`   | bare replay + next-line hardware prefetcher         |
//! | `stream_replay`   | pre-compiled replay through the streaming decoder:  |
//! |                   | `.itrace` bytes → chunked decode → `run_streaming`, |
//! |                   | the bounded-memory path (also reports peak RSS)     |
//! | `scenario_replay` | a multi-tenant burst scenario streamed through      |
//! |                   | `run_streaming` with its switch schedule attached — |
//! |                   | generator + context-switch machinery (reports RSS)  |
//! | `replan_full`     | a from-scratch `Planner::plan()` — **plans/sec**,   |
//! |                   | not blocks/sec (see [`BenchRow::unit`])             |
//! | `replan_delta`    | `Planner::replan_delta` over a ≤1%-sample delta     |
//! |                   | against a warm baseline — plans/sec; the            |
//! |                   | incremental-replanning headline row                 |
//!
//! Measurement protocol: every configuration runs `reps + 1` times; the
//! first repetition is discarded unconditionally (cache/allocator warmup —
//! discarding it *uniformly* keeps rows comparable; an earlier version let a
//! cold repetition into the ledger row's best-of and understated it), and
//! the best of the remaining `reps` is reported as blocks/sec.
//!
//! Results accumulate in the committed `BENCH_engine.json` as an ordered
//! `history` array — every `repro bench --append LABEL` run appends a
//! labelled entry rather than overwriting, so the perf trajectory across
//! reworks stays visible.

use crate::adapt::replan_workload;
use crate::json::{round2, Json};
use crate::rss;
use crate::workload::miss_derived_plan;
use ispy_core::{IspyConfig, Planner};
use ispy_isa::{CompiledInjections, InjectionMap};
use ispy_sim::{run, run_streaming, HwPrefetcher, OutcomeLedger, RunOptions, SimConfig};
use ispy_trace::artifact::{open_recording_stream, recording_to_bytes};
use ispy_trace::{apps, Line, Program, Trace};
use std::path::Path;
use std::time::Instant;

/// Timed repetitions (after the discarded warmup rep) at full scale.
pub const FULL_REPS: usize = 5;
/// Timed repetitions at `--quick` (CI smoke) scale.
pub const QUICK_REPS: usize = 3;

/// One measured configuration: name and best-observed blocks/sec.
#[derive(Debug, Clone, Copy)]
pub struct BenchRow {
    /// Stable row name, used as the JSON key.
    pub name: &'static str,
    /// Best observed throughput in trace blocks per second.
    pub blocks_per_sec: f64,
    /// Process peak RSS across the row's measurement window, for rows where
    /// memory footprint is the point (the streaming row). `None` elsewhere
    /// and on platforms without `/proc`.
    pub peak_rss_bytes: Option<u64>,
}

impl BenchRow {
    fn new(name: &'static str, blocks_per_sec: f64) -> Self {
        BenchRow { name, blocks_per_sec, peak_rss_bytes: None }
    }

    /// The unit of [`blocks_per_sec`](Self::blocks_per_sec) for this row:
    /// the `replan_*` rows time whole planner invocations, everything else
    /// trace blocks.
    pub fn unit(&self) -> &'static str {
        if self.name.starts_with("replan") {
            "plans/s"
        } else {
            "blocks/s"
        }
    }
}

/// A complete benchmark run: the workload shape plus every measured row.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Application model the trace was recorded from.
    pub app: String,
    /// Trace length in events (= blocks replayed per repetition).
    pub events: usize,
    /// Timed repetitions per row (best-of, after one discarded warmup rep).
    pub reps: usize,
    /// Whether this was the reduced `--quick` sizing.
    pub quick: bool,
    /// Measured rows, in canonical order.
    pub rows: Vec<BenchRow>,
}

impl BenchRun {
    /// The measured throughput for `name`, if that row exists.
    pub fn row(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.blocks_per_sec)
    }
}

/// Next-line-on-miss hardware prefetcher, the simplest hook that keeps the
/// in-flight bookkeeping busy.
struct NextLine;

impl HwPrefetcher for NextLine {
    fn on_fetch(&mut self, line: Line, was_miss: bool, out: &mut Vec<Line>) {
        if was_miss {
            out.push(line.offset(1));
        }
    }
}

struct Workload {
    program: Program,
    trace: Trace,
    cfg: SimConfig,
    plan: InjectionMap,
    compiled: CompiledInjections,
    events: usize,
}

fn prepare(quick: bool) -> Workload {
    let (shrink, events) = if quick { (20, 50_000) } else { (10, 200_000) };
    let model = apps::cassandra().scaled_down(shrink);
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), events);
    let cfg = SimConfig::default();
    let plan = miss_derived_plan(&program, &trace, &cfg);
    let compiled = plan.compile(program.num_blocks());
    Workload { program, trace, cfg, plan, compiled, events }
}

/// Times `f` over `reps + 1` repetitions, discards the first (warmup), and
/// returns the best remaining blocks/sec. The discard is unconditional and
/// identical for every row — see the module docs for why that matters.
fn measure(events: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..=reps {
        let t0 = Instant::now();
        f();
        let secs = t0.elapsed().as_secs_f64();
        if rep > 0 {
            best = best.min(secs);
        }
    }
    events as f64 / best
}

/// Runs the full benchmark at the given sizing and returns every
/// measured row.
pub fn run_engine_bench(quick: bool) -> BenchRun {
    let reps = if quick { QUICK_REPS } else { FULL_REPS };
    let w = prepare(quick);
    let events = w.events;

    let baseline = measure(events, reps, || {
        run(&w.program, &w.trace, &w.cfg, RunOptions::default());
    });
    let injected = measure(events, reps, || {
        run(
            &w.program,
            &w.trace,
            &w.cfg,
            RunOptions { injections: Some(&w.plan), ..Default::default() },
        );
    });
    let injected_replay = measure(events, reps, || {
        run(
            &w.program,
            &w.trace,
            &w.cfg,
            RunOptions { compiled: Some(&w.compiled), ..Default::default() },
        );
    });
    let injected_ledger = measure(events, reps, || {
        let mut ledger = OutcomeLedger::default();
        run(
            &w.program,
            &w.trace,
            &w.cfg,
            RunOptions {
                compiled: Some(&w.compiled),
                outcomes: Some(&mut ledger),
                ..Default::default()
            },
        );
    });
    let hw_prefetcher = measure(events, reps, || {
        let mut hw = NextLine;
        run(
            &w.program,
            &w.trace,
            &w.cfg,
            RunOptions { hw_prefetcher: Some(&mut hw), ..Default::default() },
        );
    });
    // The streaming row replays the serialized recording — program decode +
    // chunked event decode + simulation — so it prices the full
    // bounded-memory path, not just the engine loop. Peak RSS is reset
    // right before the reps so the reading covers only this window (it is
    // still process-wide: the materialized workload above stays resident).
    let recording = recording_to_bytes(&w.program, &w.trace);
    rss::reset_peak_rss();
    let stream_replay = measure(events, reps, || {
        let (program, mut stream) =
            open_recording_stream(recording.as_slice()).expect("recording round-trips");
        run_streaming(
            &program,
            &mut stream,
            &w.cfg,
            RunOptions { compiled: Some(&w.compiled), ..Default::default() },
        )
        .expect("in-memory stream cannot fail");
    });
    let stream_rss = rss::peak_rss_bytes();

    // Scenario replay: the burst preset's interleaved multi-tenant stream
    // through `run_streaming` with its tenant-switch schedule attached —
    // what a production-shaped evaluation pays per replay (per-tenant
    // walkers, boundary-capped batches, switch cache effects). Same sizing
    // knobs as the main workload.
    let scenario = ispy_scenario::Scenario::preset("burst")
        .expect("builtin preset")
        .scaled_down(if quick { 20 } else { 10 });
    let compiled_sc = scenario.compile(events as u64);
    let sc_cfg = SimConfig {
        schedule: Some(std::sync::Arc::new(compiled_sc.schedule().clone())),
        ..SimConfig::default()
    };
    rss::reset_peak_rss();
    let scenario_replay = measure(events, reps, || {
        let mut source = compiled_sc.source();
        run_streaming(compiled_sc.program(), &mut source, &sc_cfg, RunOptions::default())
            .expect("scenario sources cannot fail");
    });
    let scenario_rss = rss::peak_rss_bytes();

    // Incremental-replanning rows, in plans/sec: a from-scratch plan vs a
    // delta replan of a ≤1%-sample delta against a warm baseline (the exact
    // workload `repro adapt`'s microbenchmark stages).
    let wl = replan_workload(&w.program, &w.trace, &w.cfg);
    let planner = Planner::new(&w.program, &w.trace, &wl.profile, IspyConfig::default());
    let replan_full = measure(1, reps, || {
        std::hint::black_box(planner.plan());
    });
    let replan_delta = measure(1, reps, || {
        std::hint::black_box(planner.replan_delta(&wl.baseline, &wl.delta));
    });

    BenchRun {
        app: w.program.name().to_string(),
        events,
        reps,
        quick,
        rows: vec![
            BenchRow::new("baseline", baseline),
            BenchRow::new("injected", injected),
            BenchRow::new("injected_replay", injected_replay),
            BenchRow::new("injected_ledger", injected_ledger),
            BenchRow::new("hw_prefetcher", hw_prefetcher),
            BenchRow {
                name: "stream_replay",
                blocks_per_sec: stream_replay,
                peak_rss_bytes: stream_rss,
            },
            BenchRow {
                name: "scenario_replay",
                blocks_per_sec: scenario_replay,
                peak_rss_bytes: scenario_rss,
            },
            BenchRow::new("replan_full", replan_full),
            BenchRow::new("replan_delta", replan_delta),
        ],
    }
}

/// Builds the JSON history entry for one run. `threads` is recorded so a
/// sharded number can never masquerade as a single-thread one; the rows here
/// all replay sequentially, so it is always 1.
pub fn history_entry(run: &BenchRun, label: &str) -> Json {
    let mut rows = Vec::with_capacity(run.rows.len());
    let mut rss_rows = Vec::new();
    for r in &run.rows {
        // Block-rate rows are in the millions — whole numbers suffice; the
        // plans/sec rows are single digits at full sizing, so keep two
        // decimals or the recorded speedup ratio goes coarse.
        let recorded =
            if r.unit() == "plans/s" { round2(r.blocks_per_sec) } else { r.blocks_per_sec.round() };
        rows.push((r.name.to_string(), Json::Num(recorded)));
        if let Some(rss) = r.peak_rss_bytes {
            rss_rows.push((r.name.to_string(), Json::Num(rss as f64)));
        }
    }
    let mut fields = vec![
        ("label", Json::Str(label.to_string())),
        ("quick", Json::Bool(run.quick)),
        ("events", Json::Num(run.events as f64)),
        ("reps", Json::Num(run.reps as f64)),
        ("threads", Json::Num(1.0)),
        ("blocks_per_sec", Json::Obj(rows)),
    ];
    if !rss_rows.is_empty() {
        fields.push(("peak_rss_bytes", Json::Obj(rss_rows)));
    }
    Json::obj(fields)
}

/// Loads and parses a benchmark history file.
pub fn load_history(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Appends `entry` to the `history` array in `path`, creating the document
/// (and the array) if absent. Existing entries are preserved verbatim —
/// this is the "append, don't overwrite" half of the history schema.
pub fn append_history(path: &Path, entry: Json) -> Result<(), String> {
    let mut doc = if path.exists() {
        load_history(path)?
    } else {
        Json::obj([
            ("bench", Json::Str("engine".to_string())),
            ("app", Json::Str("cassandra".to_string())),
            ("history", Json::Arr(Vec::new())),
        ])
    };
    if doc.get("history").is_none() {
        doc.set("history", Json::Arr(Vec::new()));
    }
    match doc.get_mut("history") {
        Some(Json::Arr(items)) => items.push(entry),
        _ => return Err(format!("{}: `history` is not an array", path.display())),
    }
    std::fs::write(path, doc.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The most recent history entry measured at the given sizing (entries
/// without a `quick` field are treated as full-scale, which is what the
/// migrated pre-history entries were).
pub fn latest_entry(doc: &Json, quick: bool) -> Option<&Json> {
    doc.get("history")?
        .as_arr()?
        .iter()
        .rev()
        .find(|e| e.get("quick").and_then(Json::as_bool).unwrap_or(false) == quick)
}

/// The committed blocks/sec for `row` in a history entry.
pub fn entry_row(entry: &Json, row: &str) -> Option<f64> {
    entry.get("blocks_per_sec")?.get(row)?.as_f64()
}

/// The committed peak RSS (bytes) for `row` in a history entry, for the
/// rows that record one.
pub fn entry_rss(entry: &Json, row: &str) -> Option<u64> {
    Some(entry.get("peak_rss_bytes")?.get(row)?.as_f64()? as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_run(quick: bool, bps: f64) -> BenchRun {
        BenchRun {
            app: "cassandra".to_string(),
            events: 1000,
            reps: 2,
            quick,
            rows: vec![
                BenchRow::new("baseline", bps * 4.0),
                BenchRow::new("injected", bps),
                BenchRow {
                    name: "stream_replay",
                    blocks_per_sec: bps * 0.9,
                    peak_rss_bytes: Some(48 * 1024 * 1024),
                },
            ],
        }
    }

    #[test]
    fn history_appends_and_latest_entry_filters_by_sizing() {
        let dir =
            std::env::temp_dir().join(format!("ispy_enginebench_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hist.json");
        let _ = std::fs::remove_file(&path);

        append_history(&path, history_entry(&fake_run(false, 100.0), "first")).unwrap();
        append_history(&path, history_entry(&fake_run(true, 50.0), "first_quick")).unwrap();
        append_history(&path, history_entry(&fake_run(false, 200.0), "second")).unwrap();

        let doc = load_history(&path).unwrap();
        let history = doc.get("history").and_then(Json::as_arr).unwrap();
        assert_eq!(history.len(), 3, "append must preserve prior entries");

        let full = latest_entry(&doc, false).unwrap();
        assert_eq!(full.get("label").and_then(Json::as_str), Some("second"));
        assert_eq!(entry_row(full, "injected"), Some(200.0));
        let quick = latest_entry(&doc, true).unwrap();
        assert_eq!(quick.get("label").and_then(Json::as_str), Some("first_quick"));
        assert_eq!(entry_row(quick, "injected"), Some(50.0));

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn peak_rss_round_trips_through_the_history_schema() {
        let entry = history_entry(&fake_run(true, 100.0), "rss");
        assert_eq!(entry_rss(&entry, "stream_replay"), Some(48 * 1024 * 1024));
        assert_eq!(entry_rss(&entry, "baseline"), None, "rows without RSS stay absent");
        // Legacy entries predate the field entirely.
        let legacy = Json::parse(r#"{"blocks_per_sec": {"injected": 1.0}}"#).unwrap();
        assert_eq!(entry_rss(&legacy, "stream_replay"), None);
    }

    #[test]
    fn legacy_entries_without_quick_flag_count_as_full_scale() {
        let doc = Json::parse(
            r#"{"history": [{"label": "pre_rework", "blocks_per_sec": {"injected": 625490}}]}"#,
        )
        .unwrap();
        let full = latest_entry(&doc, false).unwrap();
        assert_eq!(entry_row(full, "injected"), Some(625_490.0));
        assert!(latest_entry(&doc, true).is_none());
    }
}
