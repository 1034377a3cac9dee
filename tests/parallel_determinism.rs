//! The harness's parallelism guarantee: every figure driver produces
//! byte-identical tables with 1 thread and with many, because fan-outs
//! collect rows in sweep order and every cached artifact (comparisons,
//! planner baselines) is deterministic regardless of fill order. The same
//! contract extends *inside* a single simulation: the sharded replay's
//! result must not depend on its shard count.

use ispy_harness::workload::miss_derived_plan;
use ispy_harness::{figures, Scale, Session, Table};
use ispy_scenario::{Scenario, ScenarioSource};
use ispy_sim::{
    run_streaming, simulate_sharded_source, OutcomeLedger, RunOptions, ShardConfig, SimConfig,
    SliceWindows,
};
use ispy_telemetry::{Telemetry, TimingMode};
use ispy_trace::{apps, BlockId, BlockSource, Trace};
use std::sync::Arc;

/// Runs every registered figure at the given thread count over a fresh
/// session (fresh caches each time, so cache-fill order genuinely differs
/// between runs). Also captures the run's telemetry in its deterministic
/// rendering — what the counters looked like with all wall times stripped.
fn all_tables(threads: usize) -> (Vec<Table>, String) {
    ispy_parallel::set_threads(threads);
    let previous = ispy_telemetry::swap_global(Arc::new(Telemetry::new()));
    let session = Session::with_apps(
        Scale::test(),
        vec![apps::cassandra(), apps::verilator(), apps::wordpress()],
    );
    let tables = figures::all().into_iter().map(|spec| (spec.run)(&session)).collect();
    let telemetry = ispy_telemetry::swap_global(previous).to_json(TimingMode::Deterministic);
    ispy_parallel::set_threads(0);
    (tables, telemetry)
}

#[test]
fn every_figure_is_identical_serial_vs_parallel() {
    let (serial, serial_tele) = all_tables(1);
    let (parallel, parallel_tele) = all_tables(4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s, p, "figure {} differs between 1 and 4 threads", s.id);
        // The JSON export (what `repro --json` writes) matches too.
        assert_eq!(s.to_json(), p.to_json());
    }
    // Telemetry counters only record order-invariant work (per plan call,
    // per window search, per cache-key fill), so the deterministic JSON is
    // byte-identical no matter how the pool scheduled the same work.
    assert!(serial_tele.contains("core.plan"), "planner work must be visible in telemetry");
    assert_eq!(serial_tele, parallel_tele, "telemetry must not depend on thread count");
}

#[test]
fn sharded_replay_is_identical_across_shard_counts() {
    // Intra-trace parallelism: one trace, one plan, one window/warmup shape
    // — sweeping only the worker count must reproduce the same SimResult
    // and the same per-injection OutcomeLedger byte for byte, because each
    // window's replay depends only on its trace slice and the stitch-up
    // sums deltas in window order.
    let model = apps::cassandra().scaled_down(20);
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), 30_000);
    let cfg = SimConfig::default();
    let plan = miss_derived_plan(&program, &trace, &cfg);
    let base = ShardConfig { window_blocks: 4_096, warmup_blocks: 2_048, shards: 1 };

    let windows = SliceWindows::of_trace(&trace);
    let mut reference_ledger = OutcomeLedger::default();
    let reference = simulate_sharded_source(
        &program,
        &windows,
        &cfg,
        Some(&plan),
        &base,
        Some(&mut reference_ledger),
    )
    .unwrap();
    assert!(reference.pf_ops_fired > 0, "plan must actually exercise the engine");

    for shards in [2, 4, 8] {
        let mut ledger = OutcomeLedger::default();
        let got = simulate_sharded_source(
            &program,
            &windows,
            &cfg,
            Some(&plan),
            &ShardConfig { shards, ..base },
            Some(&mut ledger),
        )
        .unwrap();
        assert_eq!(got, reference, "SimResult diverged at shards={shards}");
        assert_eq!(ledger, reference_ledger, "OutcomeLedger diverged at shards={shards}");
    }
}

const SCENARIO_EVENTS: u64 = 30_000;

/// Compiles the burst preset at test scale — the multi-tenant, multi-phase
/// stream the scenario determinism tests replay.
fn burst_scenario() -> ispy_scenario::CompiledScenario {
    Scenario::preset("burst").expect("builtin preset").scaled_down(20).compile(SCENARIO_EVENTS)
}

/// Drains a scenario source into a block vector.
fn drain(src: &mut ScenarioSource<'_>) -> Vec<BlockId> {
    let mut blocks = Vec::new();
    while let Some(chunk) = src.next_chunk().expect("scenario sources cannot fail") {
        blocks.extend_from_slice(chunk);
    }
    blocks
}

#[test]
fn scenario_replay_is_identical_serial_vs_sharded() {
    // The scenario engine's determinism contract crosses the shard seam:
    // replaying the generated stream serially (one `run_streaming` pass)
    // and through the sharded runner fed by `ScenarioWindows` must agree.
    // Exact byte-equality holds for whole-window, zero-warmup configs (one
    // window = one serial replay), for any worker count.
    let sc = burst_scenario();
    let cfg = SimConfig::default();

    // Plan from a materialized copy of the stream so injections genuinely
    // exercise the engine during the replay.
    let trace = Trace::new("scenario-burst", drain(&mut sc.source()));
    let plan = miss_derived_plan(sc.program(), &trace, &cfg);

    let mut reference_ledger = OutcomeLedger::default();
    let mut serial_src = sc.source();
    let reference = run_streaming(
        sc.program(),
        &mut serial_src,
        &cfg,
        RunOptions {
            injections: Some(&plan),
            outcomes: Some(&mut reference_ledger),
            ..Default::default()
        },
    )
    .expect("scenario sources cannot fail");
    assert!(reference.pf_ops_fired > 0, "plan must actually exercise the engine");

    let windows = sc.windows(4_096);
    let whole =
        ShardConfig { window_blocks: SCENARIO_EVENTS as usize, warmup_blocks: 0, shards: 1 };
    for shards in [1, 2, 4] {
        let mut ledger = OutcomeLedger::default();
        let got = simulate_sharded_source(
            sc.program(),
            &windows,
            &cfg,
            Some(&plan),
            &ShardConfig { shards, ..whole },
            Some(&mut ledger),
        )
        .expect("scenario sources cannot fail");
        assert_eq!(got, reference, "SimResult diverged from serial at shards={shards}");
        assert_eq!(ledger, reference_ledger, "OutcomeLedger diverged at shards={shards}");
    }

    // Windowed sharded configs approximate (warmup rebuilds state), but must
    // still be invariant in the shard count among themselves.
    let windowed = ShardConfig { window_blocks: 4_096, warmup_blocks: 2_048, shards: 1 };
    let windowed_ref =
        simulate_sharded_source(sc.program(), &windows, &cfg, Some(&plan), &windowed, None)
            .expect("scenario sources cannot fail");
    for shards in [2, 4] {
        let got = simulate_sharded_source(
            sc.program(),
            &windows,
            &cfg,
            Some(&plan),
            &ShardConfig { shards, ..windowed },
            None,
        )
        .expect("scenario sources cannot fail");
        assert_eq!(got, windowed_ref, "windowed replay diverged at shards={shards}");
    }
}

#[test]
fn scenario_stream_is_chunk_size_invariant() {
    // The generated block sequence is a pure function of the compiled
    // scenario: how the caller chunks the pull must not change a single
    // block, and a fresh source must reproduce the stream exactly.
    let sc = burst_scenario();
    let whole = drain(&mut ScenarioSource::with_chunk(&sc, SCENARIO_EVENTS as usize));
    assert_eq!(whole.len() as u64, SCENARIO_EVENTS);
    for chunk in [1usize, 7, 4_096] {
        let got = drain(&mut ScenarioSource::with_chunk(&sc, chunk));
        assert_eq!(got, whole, "stream diverged at chunk={chunk}");
    }

    // And the replay result is equally chunk-blind.
    let cfg = SimConfig::default();
    let mut one = ScenarioSource::with_chunk(&sc, 1);
    let r1 = run_streaming(sc.program(), &mut one, &cfg, RunOptions::default())
        .expect("scenario sources cannot fail");
    let mut big = ScenarioSource::with_chunk(&sc, SCENARIO_EVENTS as usize);
    let r2 = run_streaming(sc.program(), &mut big, &cfg, RunOptions::default())
        .expect("scenario sources cannot fail");
    assert_eq!(r1, r2, "SimResult must not depend on the pull chunk size");
}
