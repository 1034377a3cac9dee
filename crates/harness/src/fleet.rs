//! The fleet plan service: answer "give me a plan for app X" through a
//! three-tier path, cheapest first.
//!
//! Mirrors the multi-layer fetch pipelines of production plan services
//! (ground truth → predictive → on-demand):
//!
//! 1. **Warm** — a plan for this app/scale/config is already in the
//!    [`ArtifactCache`]; load and return it.
//! 2. **Replan** — the fleet directory holds a merged consensus profile
//!    (and a representative `.itrace`); run the planner over the aggregate
//!    through a per-app [`PlannerBaseline`], store the plan, return it.
//! 3. **Cold** — nothing aggregated yet; prepare the app from scratch
//!    (generate, record, profile — exactly the single-machine pipeline),
//!    plan, store, return.
//!
//! A `PlannerBaseline` is only valid for one fixed (trace, profile-shape)
//! pair — its position and joint-scan caches are keyed by block id over
//! *one* trace. The service therefore retains each app's baseline in a
//! digest-guarded slot: it is reused only when the request's trace digest
//! and the profile's [`baseline_digest`](ispy_profile::Profile::baseline_digest)
//! both match the slot. On a match the replan tier runs at *delta* speed —
//! the per-line memo answers every line whose miss stats did not change
//! between consensus merges, so only changed lines are re-planned. On a
//! mismatch the slot is replaced with a fresh baseline (correctness first:
//! a stale trace-keyed cache would not fail loudly, it would plan wrongly).
//!
//! Every tier records a latency span and a hit counter in
//! [`ispy_telemetry`] (`fleet.serve.{warm,replan,cold}`), so a `serve`
//! session's tier mix is observable without reading logs; baseline reuse
//! shows up as `fleet.serve.baseline_reuse`.

use crate::cache::ArtifactCache;
use crate::session::{AppContext, Scale};
use ispy_core::planner::Plan;
use ispy_core::{IspyConfig, PlannerBaseline};
use ispy_fleet::{store, FleetConfig, FleetManifest};
use ispy_profile::{ContentHasher, Profile};
use ispy_trace::{apps, Trace};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Which tier answered a plan request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeTier {
    /// Tier 1: the artifact cache already held the plan.
    Warm,
    /// Tier 2: replanned from the fleet's consensus profile.
    Replan,
    /// Tier 3: planned from a from-scratch single-machine pipeline.
    Cold,
}

impl ServeTier {
    /// The tier's telemetry suffix (`fleet.serve.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            ServeTier::Warm => "warm",
            ServeTier::Replan => "replan",
            ServeTier::Cold => "cold",
        }
    }
}

/// One answered plan request.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The app served.
    pub app: String,
    /// Which tier answered.
    pub tier: ServeTier,
    /// The plan itself.
    pub plan: Plan,
}

/// A retained per-app [`PlannerBaseline`] plus the identity of the
/// (trace, profile-shape) pair it was warmed against. Reuse is allowed
/// only when both digests match the incoming request; anything else gets
/// a fresh baseline — the caches are keyed by block id over one trace, so
/// cross-trace reuse would be silently wrong, not slow.
struct BaselineSlot {
    trace_digest: u64,
    profile_digest: u64,
    baseline: Arc<PlannerBaseline>,
}

/// The three-tier plan service over a fleet directory and an artifact
/// cache. Thread-compatible: per-app planner baselines are behind a lock,
/// and the fleet manifest is scanned lazily, once, on the first request
/// that misses tier 1.
pub struct PlanService {
    fleet_dir: PathBuf,
    scale: Scale,
    fleet_cfg: FleetConfig,
    cache: ArtifactCache,
    manifest: Mutex<Option<Arc<FleetManifest>>>,
    baselines: Mutex<HashMap<String, BaselineSlot>>,
}

/// Content digest of a trace's block sequence — the identity the
/// trace-keyed baseline caches depend on.
fn trace_digest(trace: &Trace) -> u64 {
    let mut h = ContentHasher::new();
    h.write_usize(trace.blocks().len());
    for b in trace.blocks() {
        h.write_u32(b.0);
    }
    h.finish()
}

impl PlanService {
    /// Opens a service over `fleet_dir`, memoizing plans in a cache at
    /// `cache_dir` keyed by `scale` and the default configs.
    pub fn new(fleet_dir: impl Into<PathBuf>, cache_dir: impl AsRef<Path>, scale: Scale) -> Self {
        Self::with_config(fleet_dir, cache_dir, scale, FleetConfig::default())
    }

    /// [`PlanService::new`] with explicit consensus thresholds.
    pub fn with_config(
        fleet_dir: impl Into<PathBuf>,
        cache_dir: impl AsRef<Path>,
        scale: Scale,
        fleet_cfg: FleetConfig,
    ) -> Self {
        PlanService {
            fleet_dir: fleet_dir.into(),
            scale,
            fleet_cfg,
            cache: ArtifactCache::new(cache_dir.as_ref(), scale),
            manifest: Mutex::new(None),
            baselines: Mutex::new(HashMap::new()),
        }
    }

    /// The plan-cache algorithm tag: folds the consensus thresholds in so a
    /// re-tuned fleet never serves a stale plan as a warm hit.
    fn algo(&self) -> String {
        format!(
            "fleet-lv{:03}-cv{:03}",
            (self.fleet_cfg.line_vote * 100.0).round() as u32,
            (self.fleet_cfg.ctx_vote * 100.0).round() as u32,
        )
    }

    /// The fleet manifest, scanned once on first use.
    fn manifest(&self) -> Result<Arc<FleetManifest>, String> {
        let mut slot = self.manifest.lock().expect("manifest lock");
        if let Some(m) = slot.as_ref() {
            return Ok(Arc::clone(m));
        }
        let m = Arc::new(
            FleetManifest::scan(&self.fleet_dir)
                .map_err(|e| format!("cannot scan fleet dir {}: {e}", self.fleet_dir.display()))?,
        );
        *slot = Some(Arc::clone(&m));
        Ok(m)
    }

    /// The per-app planner baseline for a (trace, profile) pair, so
    /// repeated replans for one app share the config-independent trace
    /// scans and the per-line memo. A retained slot is reused only when
    /// both the trace digest and the profile's
    /// [`baseline_digest`](Profile::baseline_digest) match — that is when
    /// a new consensus merge replans at delta speed; a mismatch (different
    /// recording, rescaled fleet) replaces the slot with a fresh baseline.
    fn baseline(&self, app: &str, trace: &Trace, profile: &Profile) -> Arc<PlannerBaseline> {
        let want_trace = trace_digest(trace);
        let want_profile = profile.baseline_digest();
        let mut map = self.baselines.lock().expect("baselines lock");
        if let Some(slot) = map.get(app) {
            if slot.trace_digest == want_trace && slot.profile_digest == want_profile {
                ispy_telemetry::global().incr("fleet.serve.baseline_reuse");
                return Arc::clone(&slot.baseline);
            }
        }
        let baseline = Arc::new(PlannerBaseline::new());
        map.insert(
            app.to_string(),
            BaselineSlot {
                trace_digest: want_trace,
                profile_digest: want_profile,
                baseline: Arc::clone(&baseline),
            },
        );
        baseline
    }

    /// Answers one plan request through the tiers.
    ///
    /// # Errors
    ///
    /// A human-readable message when every tier fails: no cached plan, no
    /// consensus artifacts for `app`, and `app` is not one of the nine
    /// built-in models either.
    pub fn serve(&self, app: &str) -> Result<ServeOutcome, String> {
        let tele = ispy_telemetry::global();

        {
            let _span = tele.span("fleet.serve.warm");
            if let Some(plan) = self.cache.load_plan(app, &self.algo()) {
                tele.incr("fleet.serve.warm");
                return Ok(ServeOutcome { app: app.to_string(), tier: ServeTier::Warm, plan });
            }
        }

        if let Some(plan) = self.try_replan(app)? {
            return Ok(ServeOutcome { app: app.to_string(), tier: ServeTier::Replan, plan });
        }

        let _span = tele.span("fleet.serve.cold");
        let Some(model) = apps::by_name(app) else {
            return Err(format!(
                "cannot serve `{app}`: no cached plan, no consensus artifacts in {}, and no \
                 built-in model of that name (known: {})",
                self.fleet_dir.display(),
                apps::NAMES.join(",")
            ));
        };
        let ctx = AppContext::prepare_with(model, self.scale, Some(&self.cache));
        let plan = ispy_fleet::plan_consensus(
            &ctx.program,
            &ctx.trace,
            &ctx.profile,
            IspyConfig::default(),
            &self.baseline(app, &ctx.trace, &ctx.profile),
        );
        self.cache.store_plan(app, &self.algo(), &plan);
        tele.incr("fleet.serve.cold");
        Ok(ServeOutcome { app: app.to_string(), tier: ServeTier::Cold, plan })
    }

    /// Tier 2: plan from the fleet's merged aggregate, if one exists.
    ///
    /// Needs both the consensus `.iprof` (written by `repro fleet merge`)
    /// and a representative `.itrace` in the fleet directory; returns
    /// `Ok(None)` when either is absent so the caller can fall through to
    /// the cold tier. A *damaged* consensus artifact is an error, not a
    /// fall-through — silently replacing fleet data with a single-machine
    /// plan would be a correctness trap.
    fn try_replan(&self, app: &str) -> Result<Option<Plan>, String> {
        let consensus_path = store::consensus_profile_path(&self.fleet_dir, app);
        if !consensus_path.exists() {
            return Ok(None);
        }
        let tele = ispy_telemetry::global();
        let _span = tele.span("fleet.serve.replan");
        let manifest = self.manifest()?;
        let Some(trace_entry) = manifest.canonical_trace(app) else {
            return Ok(None);
        };
        let (_label, consensus) = ispy_profile::artifact::read_profile(&consensus_path)
            .map_err(|e| format!("damaged consensus profile {}: {e}", consensus_path.display()))?;
        let (program, trace) = ispy_trace::artifact::read_recording(&trace_entry.path)
            .map_err(|e| format!("damaged recording {}: {e}", trace_entry.path.display()))?;
        let plan = ispy_fleet::plan_consensus(
            &program,
            &trace,
            &consensus,
            IspyConfig::default(),
            &self.baseline(app, &trace, &consensus),
        );
        self.cache.store_plan(app, &self.algo(), &plan);
        tele.incr("fleet.serve.replan");
        Ok(Some(plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispy_profile::{profile, SampleRate};
    use ispy_sim::SimConfig;

    fn service() -> PlanService {
        let dir =
            std::env::temp_dir().join(format!("ispy_fleet_baseline_test_{}", std::process::id()));
        PlanService::new(dir.join("fleet"), dir.join("cache"), Scale::test())
    }

    #[test]
    fn baseline_slot_reuses_only_on_matching_digests() {
        let svc = service();
        let model = apps::kafka().scaled_down(40);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 5_000);
        let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);

        let first = svc.baseline("kafka", &trace, &prof);
        let again = svc.baseline("kafka", &trace, &prof);
        assert!(
            Arc::ptr_eq(&first, &again),
            "same (trace, profile) must reuse the retained baseline"
        );

        // A different recording of the same app must NOT share the slot:
        // the baseline's position/joint caches are keyed over one trace.
        let other = program.record_trace(model.default_input(), 6_000);
        let other_prof = profile(&program, &other, &SimConfig::default(), SampleRate::EXACT);
        let fresh = svc.baseline("kafka", &other, &other_prof);
        assert!(!Arc::ptr_eq(&first, &fresh), "a different trace must get a fresh baseline");

        // And switching back re-keys the slot again (latest wins).
        let back = svc.baseline("kafka", &trace, &prof);
        assert!(!Arc::ptr_eq(&fresh, &back));
    }
}
