//! The deterministic consensus merge: many per-machine profiles, one
//! aggregate profile the planner can consume.
//!
//! # Semantics
//!
//! Members are folded one at a time (bounded memory — the accumulator's
//! size depends on the app's block/line space, never on the member count)
//! in the manifest's canonical `(label, digest)` order, so the result is a
//! pure function of the member *set*: shuffling ingest order changes no
//! output byte. All integer statistics are weighted sums; per-block average
//! cycle costs are the exec-weighted mean, accumulated in canonical order
//! so the floating-point sums are reproducible too.
//!
//! Two *vote thresholds* implement the consensus part:
//!
//! * a missing line enters the aggregate only if at least
//!   `ceil(line_vote · members)` member profiles observed it, and
//! * a predictor block stays in a surviving line's history-presence map
//!   only if at least `ceil(ctx_vote · line_voters)` of the members that
//!   voted for the line saw it in their history windows.
//!
//! Both thresholds clamp to at least one vote, so a fleet of one machine is
//! passed through *verbatim* — bit-identical CFG (including `f64` cycle
//! bits), miss statistics, and therefore plans. That degenerate case is the
//! anchor for the golden tests.

use crate::error::FleetError;
use crate::store::FleetManifest;
use crate::FleetConfig;
use ispy_core::planner::Plan;
use ispy_core::{IspyConfig, Planner, PlannerBaseline};
use ispy_profile::{DynCfg, LineMissStats, MissProfile, Profile};
use ispy_trace::{BlockId, Line, Program, Trace};
use std::collections::{BTreeMap, HashMap};

/// What one app's merge did — reported by `repro fleet merge` and asserted
/// by the consensus tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Member profiles folded.
    pub members: u64,
    /// Distinct missing lines observed across all members.
    pub lines_seen: usize,
    /// Lines that survived the vote threshold.
    pub lines_kept: usize,
    /// Predictor-block entries dropped by the context vote threshold.
    pub predictors_dropped: u64,
    /// Total weighted misses in the kept lines.
    pub total_misses: u64,
}

/// Per-line accumulator: weighted sums plus vote counts.
#[derive(Debug, Default)]
struct LineAccum {
    /// Members that observed this line at all.
    votes: u64,
    count: u64,
    at_blocks: BTreeMap<u32, u64>,
    /// Predictor block -> (members that saw it for this line, weighted count).
    history: BTreeMap<u32, (u64, u64)>,
    positions: Vec<u32>,
}

/// An in-progress consensus merge for one app.
///
/// Fold members with [`ConsensusBuilder::fold`] (any number, one resident
/// at a time), then [`ConsensusBuilder::finish`] applies the vote
/// thresholds and emits the aggregate [`Profile`]. Callers that want
/// order-invariant output must fold in a canonical order — the manifest's
/// `(label, digest)` order is the one the rest of the crate uses.
///
/// # Examples
///
/// ```
/// use ispy_fleet::{ConsensusBuilder, FleetConfig};
/// use ispy_profile::{profile, SampleRate};
/// use ispy_sim::SimConfig;
/// use ispy_trace::apps;
///
/// let model = apps::kafka().scaled_down(60);
/// let program = model.generate();
/// let mut builder = ConsensusBuilder::new("kafka", FleetConfig::default());
/// for machine in 0..3 {
///     let trace = program.record_trace(model.input_variant(machine), 3_000);
///     let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
///     builder.fold(&prof, 1).unwrap();
/// }
/// let (consensus, stats) = builder.finish().unwrap();
/// assert_eq!(stats.members, 3);
/// assert_eq!(consensus.trace_len, 9_000); // weighted sum of member traces
/// assert!(consensus.misses.total_misses() > 0);
/// ```
#[derive(Debug)]
pub struct ConsensusBuilder {
    app: String,
    cfg: FleetConfig,
    members: u64,
    num_blocks: usize,
    lbr_depth: usize,
    trace_len: u64,
    exec: Vec<u64>,
    /// Canonical-order sums of `weighted exec · avg_cycles` per block.
    cycles_weighted: Vec<f64>,
    /// The first member's cycle bits, passed through verbatim when the
    /// fleet turns out to have exactly one member.
    first_avg: Vec<f64>,
    edges: BTreeMap<(u32, u32), u64>,
    lines: BTreeMap<u64, LineAccum>,
}

impl ConsensusBuilder {
    /// Starts an empty merge for `app` under `cfg`.
    pub fn new(app: impl Into<String>, cfg: FleetConfig) -> Self {
        ConsensusBuilder {
            app: app.into(),
            cfg,
            members: 0,
            num_blocks: 0,
            lbr_depth: 0,
            trace_len: 0,
            exec: Vec::new(),
            cycles_weighted: Vec::new(),
            first_avg: Vec::new(),
            edges: BTreeMap::new(),
            lines: BTreeMap::new(),
        }
    }

    /// Members folded so far.
    pub fn members(&self) -> u64 {
        self.members
    }

    /// Folds one member profile with `weight` (clamped to at least 1: a
    /// weight is a replication count, and a machine that is present counts).
    ///
    /// # Errors
    ///
    /// [`FleetError::Incompatible`] if the member disagrees with earlier
    /// members on block count or LBR depth — it was not produced from the
    /// same binary, and averaging across binaries would be meaningless.
    pub fn fold(&mut self, member: &Profile, weight: u64) -> Result<(), FleetError> {
        let w = weight.max(1);
        let n = member.cfg.num_blocks();
        if self.members == 0 {
            self.num_blocks = n;
            self.lbr_depth = member.lbr_depth;
            self.exec = vec![0; n];
            self.cycles_weighted = vec![0.0; n];
            self.first_avg = (0..n).map(|i| member.cfg.avg_cycles(BlockId(i as u32))).collect();
        } else if n != self.num_blocks {
            return Err(FleetError::Incompatible {
                app: self.app.clone(),
                reason: format!("block count {n} != {}", self.num_blocks),
            });
        } else if member.lbr_depth != self.lbr_depth {
            return Err(FleetError::Incompatible {
                app: self.app.clone(),
                reason: format!("LBR depth {} != {}", member.lbr_depth, self.lbr_depth),
            });
        }
        self.members += 1;
        self.trace_len += member.trace_len as u64 * w;

        for i in 0..n {
            let b = BlockId(i as u32);
            let e = member.cfg.exec_count(b) * w;
            self.exec[i] += e;
            self.cycles_weighted[i] += e as f64 * member.cfg.avg_cycles(b);
            for &(to, cnt) in member.cfg.succs(b) {
                *self.edges.entry((i as u32, to.0)).or_insert(0) += cnt * w;
            }
        }

        for (line, stats) in member.misses.iter() {
            let la = self.lines.entry(line.raw()).or_default();
            la.votes += 1;
            la.count += stats.count * w;
            for (&b, &c) in &stats.at_blocks {
                *la.at_blocks.entry(b.0).or_insert(0) += c * w;
            }
            for (&b, &c) in &stats.history_presence {
                let e = la.history.entry(b.0).or_insert((0, 0));
                e.0 += 1;
                e.1 += c * w;
            }
            // A weight-w member contributes each sampled position w times,
            // keeping the codec invariant `positions.len() == count`.
            for &p in &stats.positions {
                for _ in 0..w {
                    la.positions.push(p);
                }
            }
        }
        Ok(())
    }

    /// Applies the vote thresholds and emits the aggregate profile.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoProfiles`] if nothing was folded.
    pub fn finish(self) -> Result<(Profile, MergeStats), FleetError> {
        if self.members == 0 {
            return Err(FleetError::NoProfiles { app: self.app });
        }
        let single = self.members == 1;
        let avg_cycles: Vec<f64> = if single {
            // A one-machine fleet is that machine: pass the bits through
            // rather than round-tripping them through a multiply/divide.
            self.first_avg
        } else {
            self.exec
                .iter()
                .zip(&self.cycles_weighted)
                .map(|(&e, &cw)| if e == 0 { 0.0 } else { cw / e as f64 })
                .collect()
        };
        let edges: HashMap<(u32, u32), u64> = self.edges.into_iter().collect();
        let cfg = DynCfg::new(self.exec, avg_cycles, &edges);

        let line_needed = votes_needed(self.cfg.line_vote, self.members);
        let mut misses = MissProfile::new();
        let mut stats = MergeStats { members: self.members, ..Default::default() };
        for (raw, mut la) in self.lines {
            stats.lines_seen += 1;
            if la.votes < line_needed {
                continue;
            }
            stats.lines_kept += 1;
            stats.total_misses += la.count;
            let ctx_needed = votes_needed(self.cfg.ctx_vote, la.votes);
            let mut line = LineMissStats { count: la.count, ..Default::default() };
            for (b, (votes, count)) in la.history {
                if votes >= ctx_needed {
                    line.history_presence.insert(BlockId(b), count);
                } else {
                    stats.predictors_dropped += 1;
                }
            }
            line.at_blocks = la.at_blocks.into_iter().map(|(b, c)| (BlockId(b), c)).collect();
            la.positions.sort_unstable();
            line.positions = la.positions;
            misses.insert_line(Line::new(raw), line);
        }

        let trace_len = usize::try_from(self.trace_len).map_err(|_| FleetError::Incompatible {
            app: self.app.clone(),
            reason: "merged trace length overflows usize".to_string(),
        })?;
        let profile = Profile { cfg, misses, trace_len, lbr_depth: self.lbr_depth };
        let tele = ispy_telemetry::global();
        tele.add("fleet.merge.members", self.members);
        tele.add("fleet.merge.lines_kept", stats.lines_kept as u64);
        tele.add("fleet.merge.lines_dropped", (stats.lines_seen - stats.lines_kept) as u64);
        tele.add("fleet.merge.predictors_dropped", stats.predictors_dropped);
        Ok((profile, stats))
    }
}

/// `max(1, ceil(frac · total))` — the vote count a threshold fraction
/// demands. Clamped so a single voter always passes its own vote.
fn votes_needed(frac: f64, total: u64) -> u64 {
    let needed = (frac * total as f64).ceil() as u64;
    needed.clamp(1, total)
}

/// Merges the manifest's members for `app`, reading one artifact at a time
/// in canonical order.
///
/// # Errors
///
/// [`FleetError::NoProfiles`] if the manifest has no `.iprof` members for
/// `app`; otherwise as [`ConsensusBuilder::fold`] or the artifact decoders.
pub fn merge_app(
    manifest: &FleetManifest,
    app: &str,
    cfg: FleetConfig,
) -> Result<(Profile, MergeStats), FleetError> {
    let tele = ispy_telemetry::global();
    let _span = tele.span("fleet.merge");
    let mut builder = ConsensusBuilder::new(app, cfg);
    for entry in manifest.profiles_for(app) {
        let (_label, member) = ispy_profile::artifact::read_profile(&entry.path)?;
        builder.fold(&member, entry.weight)?;
    }
    builder.finish()
}

/// Merges every app in the manifest, sharded across the worker pool (one
/// app per thread, results in sorted-app order — deterministic like every
/// other fan-out in this workspace).
///
/// # Errors
///
/// The first failing app's error, in app order.
pub fn merge_all(
    manifest: &FleetManifest,
    cfg: FleetConfig,
) -> Result<Vec<(String, Profile, MergeStats)>, FleetError> {
    let apps: Vec<String> =
        manifest.apps().into_iter().filter(|a| !manifest.profiles_for(a).is_empty()).collect();
    let merged = ispy_parallel::par_collect(apps.len(), |i| merge_app(manifest, &apps[i], cfg));
    let mut out = Vec::with_capacity(apps.len());
    for (app, result) in apps.into_iter().zip(merged) {
        let (profile, stats) = result?;
        out.push((app, profile, stats));
    }
    Ok(out)
}

/// Plans injections from a consensus profile against a representative
/// execution, reusing a [`PlannerBaseline`] so repeated replans (the serve
/// path's tier 2) share the config-independent trace scans.
///
/// This is a thin, instrumented wrapper over [`Planner::plan_with_baseline`]
/// — planning from a fleet of one is byte-identical to planning from that
/// member directly.
pub fn plan_consensus(
    program: &Program,
    trace: &Trace,
    consensus: &Profile,
    cfg: IspyConfig,
    baseline: &PlannerBaseline,
) -> Plan {
    let tele = ispy_telemetry::global();
    let _span = tele.span("fleet.plan");
    Planner::new(program, trace, consensus, cfg).plan_with_baseline(baseline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn votes_needed_clamps_sanely() {
        assert_eq!(votes_needed(0.5, 1), 1);
        assert_eq!(votes_needed(0.5, 2), 1);
        assert_eq!(votes_needed(0.5, 3), 2);
        assert_eq!(votes_needed(0.0, 5), 1);
        assert_eq!(votes_needed(1.0, 5), 5);
    }

    /// The boundary fractions: 0.0 still demands one vote, 1.0 demands
    /// exactly `total` (never more), and a single-member fleet always
    /// passes its own vote regardless of the fraction.
    #[test]
    fn votes_needed_boundary_fractions() {
        for total in 1..=7u64 {
            assert_eq!(votes_needed(0.0, total), 1, "0.0 clamps up at total={total}");
            assert_eq!(votes_needed(1.0, total), total, "1.0 is unanimity at total={total}");
        }
        for frac in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(votes_needed(frac, 1), 1, "a lone voter passes at frac={frac}");
        }
    }

    /// Exact-ceil ties: when `frac · total` lands on an integer the ceiling
    /// is that integer, one member short of the next threshold step.
    #[test]
    fn votes_needed_exact_ceil_ties() {
        // 0.5 · 4 = 2.0 exactly: two votes suffice, not three.
        assert_eq!(votes_needed(0.5, 4), 2);
        assert_eq!(votes_needed(0.5, 6), 3);
        // 0.25 · 8 = 2.0 and 0.75 · 8 = 6.0, both exact.
        assert_eq!(votes_needed(0.25, 8), 2);
        assert_eq!(votes_needed(0.75, 8), 6);
        // The non-tie neighbours round up as usual.
        assert_eq!(votes_needed(0.25, 9), 3);
        assert_eq!(votes_needed(0.75, 9), 7);
    }

    #[test]
    fn empty_merge_is_a_typed_error() {
        let b = ConsensusBuilder::new("ghost", FleetConfig::default());
        assert!(matches!(b.finish(), Err(FleetError::NoProfiles { .. })));
    }

    /// One block, one edge, one miss line with `count` misses and matching
    /// sampled positions — the smallest member that exercises the
    /// `positions.len() == count` codec invariant.
    fn one_line_member(count: u64) -> Profile {
        let mut edges = HashMap::new();
        edges.insert((0u32, 1u32), 4u64);
        let cfg = DynCfg::new(vec![8, 8], vec![1.0, 1.0], &edges);
        let mut misses = MissProfile::new();
        misses.insert_line(
            Line::new(0x40),
            LineMissStats {
                count,
                at_blocks: [(BlockId(1), count)].into_iter().collect(),
                history_presence: [(BlockId(0), count)].into_iter().collect(),
                positions: (0..count).map(|i| (i as u32) * 2 + 1).collect(),
            },
        );
        Profile { cfg, misses, trace_len: 50, lbr_depth: 8 }
    }

    /// Weight replication: folding a member with weight `w` must scale the
    /// line's miss count by `w` *and* replicate each sampled position `w`
    /// times, preserving `positions.len() == count` through the merge.
    #[test]
    fn weight_replication_preserves_positions_invariant() {
        let mut builder = ConsensusBuilder::new("toy", FleetConfig::default());
        builder.fold(&one_line_member(3), 4).unwrap();
        builder.fold(&one_line_member(2), 1).unwrap();
        let (consensus, stats) = builder.finish().unwrap();
        assert_eq!(stats.lines_kept, 1);
        let (_, line) = consensus.misses.iter().next().unwrap();
        assert_eq!(line.count, 3 * 4 + 2, "weighted sum of member counts");
        assert_eq!(
            line.positions.len() as u64,
            line.count,
            "each position replicated weight times keeps the codec invariant"
        );
        let mut sorted = line.positions.clone();
        sorted.sort_unstable();
        assert_eq!(line.positions, sorted, "finish() emits positions sorted");

        // Weight 0 clamps to 1 — a machine that is present counts once.
        let mut clamped = ConsensusBuilder::new("toy", FleetConfig::default());
        clamped.fold(&one_line_member(5), 0).unwrap();
        let (solo, _) = clamped.finish().unwrap();
        let (_, line) = solo.misses.iter().next().unwrap();
        assert_eq!(line.count, 5);
        assert_eq!(line.positions.len(), 5);
    }
}
