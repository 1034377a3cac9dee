//! Integration tests for the fleet subsystem: consensus-merge determinism
//! (the shuffled-ingest property and the single-profile golden anchor),
//! vote-threshold semantics, typed incompatibility errors, and the serve
//! path's tier progression.

use ispy_core::{IspyConfig, Planner, PlannerBaseline};
use ispy_fleet::{merge_app, plan_consensus, ConsensusBuilder, FleetConfig, FleetManifest};
use ispy_harness::fleet::ServeTier;
use ispy_harness::{PlanService, Scale};
use ispy_profile::{profile, DynCfg, LineMissStats, MissProfile, Profile, SampleRate};
use ispy_sim::SimConfig;
use ispy_trace::{apps, BlockId, Line};
use std::collections::HashMap;
use std::path::Path;

/// Per-machine member profiles of one binary under drifted inputs — the
/// raw material every test merges.
fn member_profiles(n: usize) -> (ispy_trace::Program, ispy_trace::Trace, Vec<Profile>) {
    let model = apps::kafka().scaled_down(40);
    let program = model.generate();
    let trace = program.record_trace(model.default_input(), 3_000);
    let members = (0..n)
        .map(|m| {
            let t = program.record_trace(model.input_variant(m % 5), 3_000 + 61 * m);
            profile(&program, &t, &SimConfig::default(), SampleRate::EXACT)
        })
        .collect();
    (program, trace, members)
}

fn write_members(dir: &Path, members: &[&Profile]) {
    std::fs::create_dir_all(dir).unwrap();
    for (i, member) in members.iter().enumerate() {
        let path = dir.join(format!("kafka-m{i:04}.iprof"));
        ispy_profile::artifact::write_profile("kafka", member, &path).unwrap();
    }
}

/// The tentpole determinism property: scanning the same member *set* from
/// directories whose filenames assign the members in opposite orders (so
/// every path-ordered fold sequence differs) produces byte-identical
/// consensus profiles — merge order is canonical, not ingest order.
#[test]
fn consensus_merge_is_ingest_order_invariant() {
    let (_program, _trace, members) = member_profiles(4);
    let root = std::env::temp_dir().join(format!("ispy-fleet-it-shuffle-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let forward: Vec<&Profile> = members.iter().collect();
    let shuffled: Vec<&Profile> = members.iter().rev().collect();
    write_members(&root.join("a"), &forward);
    write_members(&root.join("b"), &shuffled);

    let mut bytes = Vec::new();
    for sub in ["a", "b"] {
        let manifest = FleetManifest::scan(&root.join(sub)).unwrap();
        assert_eq!(manifest.profiles.len(), 4);
        let (consensus, stats) = merge_app(&manifest, "kafka", FleetConfig::default()).unwrap();
        assert_eq!(stats.members, 4);
        // Publish the consensus into the fleet dir the way `repro fleet
        // merge` does: a re-scan must skip it, so a second merge sees the
        // same member set and produces the same bytes (idempotence).
        ispy_profile::artifact::write_profile(
            "kafka",
            &consensus,
            &ispy_fleet::store::consensus_profile_path(&root.join(sub), "kafka"),
        )
        .unwrap();
        let rescan = FleetManifest::scan(&root.join(sub)).unwrap();
        assert_eq!(rescan.profiles.len(), 4, "scan must skip consensus outputs");
        bytes.push(ispy_profile::artifact::profile_to_bytes("kafka", &consensus));
    }
    assert_eq!(bytes[0], bytes[1], "consensus bytes depend on ingest order");
    std::fs::remove_dir_all(&root).ok();
}

/// The golden anchor: a fleet of exactly one machine *is* that machine.
/// The consensus profile re-encodes to the member's exact bytes (including
/// `f64` cycle bits), and planning from it is byte-identical to planning
/// from the member directly.
#[test]
fn single_profile_fleet_is_byte_identical_to_direct_plan() {
    let (program, trace, members) = member_profiles(1);
    let member = &members[0];

    let mut builder = ConsensusBuilder::new("kafka", FleetConfig::default());
    builder.fold(member, 1).unwrap();
    let (consensus, stats) = builder.finish().unwrap();
    assert_eq!(stats.members, 1);
    assert_eq!(stats.lines_seen, stats.lines_kept);
    assert_eq!(stats.predictors_dropped, 0);
    assert_eq!(
        ispy_profile::artifact::profile_to_bytes("kafka", &consensus),
        ispy_profile::artifact::profile_to_bytes("kafka", member),
        "single-member consensus must pass the member through verbatim"
    );

    let baseline = PlannerBaseline::new();
    let fleet_plan = plan_consensus(&program, &trace, &consensus, IspyConfig::default(), &baseline);
    let direct = Planner::new(&program, &trace, member, IspyConfig::default()).plan();
    assert_eq!(
        ispy_core::artifact::plan_to_bytes("kafka", &fleet_plan),
        ispy_core::artifact::plan_to_bytes("kafka", &direct),
        "planning from a fleet of one must be byte-identical to plan_with_baseline"
    );
}

/// A tiny hand-built member: two blocks, one edge, and the given miss
/// lines, each with predictor blocks from `history`.
fn synthetic_member(lines: &[(u64, &[u32])]) -> Profile {
    let mut edges = HashMap::new();
    edges.insert((0u32, 1u32), 10u64);
    let cfg = DynCfg::new(vec![10, 10], vec![2.0, 3.0], &edges);
    let mut misses = MissProfile::new();
    for &(raw, predictors) in lines {
        misses.insert_line(
            Line::new(raw),
            LineMissStats {
                count: 2,
                at_blocks: [(BlockId(1), 2u64)].into_iter().collect(),
                history_presence: predictors.iter().map(|&b| (BlockId(b), 2u64)).collect(),
                positions: vec![3, 7],
            },
        );
    }
    Profile { cfg, misses, trace_len: 100, lbr_depth: 8 }
}

/// Vote semantics: a line observed by a minority of members is dropped; a
/// kept line's predictor blocks are voted on among the *line's* voters.
#[test]
fn vote_thresholds_drop_minority_lines_and_contexts() {
    // Three members; line 0x40 seen by two (majority), line 0x80 by one.
    // For 0x40, predictor block 0 is seen by both voters, block 1 by one.
    let a = synthetic_member(&[(0x40, &[0, 1]), (0x80, &[0])]);
    let b = synthetic_member(&[(0x40, &[0])]);
    let c = synthetic_member(&[]);

    let mut builder = ConsensusBuilder::new("toy", FleetConfig { line_vote: 0.5, ctx_vote: 1.0 });
    for m in [&a, &b, &c] {
        builder.fold(m, 1).unwrap();
    }
    let (consensus, stats) = builder.finish().unwrap();
    assert_eq!(stats.lines_seen, 2);
    assert_eq!(stats.lines_kept, 1, "0x80 had 1 of 3 votes and 0.5 needs 2");
    assert_eq!(stats.predictors_dropped, 1, "block 1 had 1 of 2 context votes");

    let mut kept: Vec<u64> = consensus.misses.iter().map(|(l, _)| l.raw()).collect();
    kept.sort_unstable();
    assert_eq!(kept, vec![0x40]);
    let (_, line) = consensus.misses.iter().find(|(l, _)| l.raw() == 0x40).unwrap();
    assert_eq!(line.count, 4, "weighted sum of both voters");
    assert!(line.history_presence.contains_key(&BlockId(0)));
    assert!(!line.history_presence.contains_key(&BlockId(1)));
    assert_eq!(line.positions.len() as u64, line.count, "codec invariant");
}

/// Weighted members replicate exactly: folding a member with weight 3 is
/// byte-identical to folding three copies of it.
#[test]
fn weights_are_replication_counts() {
    let m = synthetic_member(&[(0x40, &[0])]);
    let mut weighted = ConsensusBuilder::new("toy", FleetConfig::default());
    weighted.fold(&m, 3).unwrap();
    weighted.fold(&m, 1).unwrap();
    let mut replicated = ConsensusBuilder::new("toy", FleetConfig::default());
    for _ in 0..2 {
        replicated.fold(&m, 1).unwrap();
    }
    let (wp, _) = weighted.finish().unwrap();
    let (rp, _) = replicated.finish().unwrap();
    // Same member set modulo weights, but weight 3 vs 1: the weighted sums
    // differ while the vote counts (2 members each) agree.
    assert_eq!(wp.misses.iter().count(), rp.misses.iter().count());
    assert_eq!(wp.trace_len, 400);
    assert_eq!(rp.trace_len, 200);
}

/// Members that disagree on the binary's shape are a typed error, not a
/// silently meaningless average — exercised through the scan+merge path a
/// real fleet directory would take.
#[test]
fn incompatible_members_are_a_typed_error() {
    let model = apps::drupal().scaled_down(40);
    let program = model.generate();
    let t = program.record_trace(model.default_input(), 2_000);
    let foreign = profile(&program, &t, &SimConfig::default(), SampleRate::EXACT);
    let (_p, _t, members) = member_profiles(1);

    let dir = std::env::temp_dir().join(format!("ispy-fleet-it-incompat-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    write_members(&dir, &[&members[0]]);
    // A drupal-shaped profile mislabeled as kafka: same app shard, wrong
    // binary.
    ispy_profile::artifact::write_profile("kafka", &foreign, &dir.join("kafka-m9999.iprof"))
        .unwrap();
    let manifest = FleetManifest::scan(&dir).unwrap();
    match merge_app(&manifest, "kafka", FleetConfig::default()) {
        Err(ispy_fleet::FleetError::Incompatible { app, .. }) => assert_eq!(app, "kafka"),
        other => panic!("expected Incompatible, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The serve path's tier progression: an empty fleet answers cold, a
/// repeat of the same request hits the warm cache, and once a consensus
/// exists a fresh cache replans from the aggregate. Every tier bumps its
/// telemetry counter.
#[test]
fn serve_tiers_progress_and_count() {
    let root = std::env::temp_dir().join(format!("ispy-fleet-it-serve-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let fleet_dir = root.join("fleet");
    std::fs::create_dir_all(&fleet_dir).unwrap();

    let tele = ispy_telemetry::global();
    let before = |name: &str| tele.counter(name);
    let (warm0, replan0, cold0) =
        (before("fleet.serve.warm"), before("fleet.serve.replan"), before("fleet.serve.cold"));

    // Tier 3: nothing aggregated, kafka is a built-in model.
    let service = PlanService::new(&fleet_dir, root.join("cache-a"), Scale::test());
    let cold = service.serve("kafka").unwrap();
    assert_eq!(cold.tier, ServeTier::Cold);

    // Tier 1: the plan just stored answers the repeat request.
    let warm = service.serve("kafka").unwrap();
    assert_eq!(warm.tier, ServeTier::Warm);
    assert_eq!(
        ispy_core::artifact::plan_to_bytes("kafka", &warm.plan),
        ispy_core::artifact::plan_to_bytes("kafka", &cold.plan),
    );

    // Unknown app with no consensus: an error naming the known models.
    let err = service.serve("no-such-app").unwrap_err();
    assert!(err.contains("no-such-app") && err.contains("kafka"), "unhelpful error: {err}");

    // Tier 2: publish a consensus + representative recording, fresh cache.
    let (program, trace, members) = member_profiles(2);
    write_members(&fleet_dir, &[&members[0], &members[1]]);
    ispy_trace::artifact::write_recording(&program, &trace, &fleet_dir.join("kafka.itrace"))
        .unwrap();
    let manifest = FleetManifest::scan(&fleet_dir).unwrap();
    let (consensus, _) = merge_app(&manifest, "kafka", FleetConfig::default()).unwrap();
    ispy_profile::artifact::write_profile(
        "kafka",
        &consensus,
        &ispy_fleet::store::consensus_profile_path(&fleet_dir, "kafka"),
    )
    .unwrap();
    let service = PlanService::new(&fleet_dir, root.join("cache-b"), Scale::test());
    let replan = service.serve("kafka").unwrap();
    assert_eq!(replan.tier, ServeTier::Replan);
    assert!(replan.plan.stats.ops_total() > 0);

    assert!(tele.counter("fleet.serve.warm") > warm0);
    assert!(tele.counter("fleet.serve.replan") > replan0);
    assert!(tele.counter("fleet.serve.cold") > cold0);
    std::fs::remove_dir_all(&root).ok();
}
