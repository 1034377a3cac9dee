//! The end-to-end offline analysis (§IV steps 2–3).

use crate::coalesce::{coalesce_lines, CoalescedGroup};
use crate::config::IspyConfig;
use crate::context::{greedy_cover, ContextChoice};
use crate::provenance::{PlannedLine, ProvenanceRecord};
use crate::window::{
    search_window, select_covering_sites, SelectedSite, SelectionPolicy, SiteCandidate,
    WindowSearch,
};
use crate::work::WorkCounters;
use ispy_isa::{ContextHash, InjectionMap, PrefetchOp, ProvenanceId};
use ispy_profile::scan::MAX_CANDIDATES;
use ispy_profile::{
    scan_joint, ContentHasher, JointCounts, JointQuery, LineMissStats, Profile, ProfileDelta,
};
use ispy_sim::FxHashMap;
use ispy_trace::{BlockId, Line, Program, Trace};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, PoisonError};

/// Aggregate statistics about a produced plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanStats {
    /// Missing lines that met the miss-count threshold.
    pub target_lines: usize,
    /// Lines for which a timely injection site was found.
    pub covered_lines: usize,
    /// Lines with no predecessor inside the prefetch window.
    pub uncovered_lines: usize,
    /// Distinct injection sites used.
    pub sites: usize,
    /// Injected instructions by mnemonic.
    pub ops_plain: usize,
    /// `Cprefetch` count.
    pub ops_cond: usize,
    /// `Lprefetch` count.
    pub ops_coalesced: usize,
    /// `CLprefetch` count.
    pub ops_cond_coalesced: usize,
    /// Bytes added to the text segment.
    pub injected_bytes: u64,
    /// Static code-footprint increase (bytes injected / original text).
    pub static_increase: f64,
    /// (site, line) pairs for which a miss context was adopted.
    pub contexts_adopted: usize,
    /// Total predictor blocks across adopted contexts.
    pub context_blocks_total: usize,
    /// Histogram of coalesced extra-line distances (index = distance − 1).
    pub coalesced_distance_hist: Vec<u64>,
    /// Histogram of lines per injected op (index = lines − 1, saturating).
    pub lines_per_op_hist: Vec<u64>,
    /// Lines with no dynamic predecessor at all inside the prefetch window.
    pub lines_no_candidates: usize,
    /// Lines whose window candidates all failed the coverage/precision
    /// floors.
    pub lines_no_sites: usize,
    /// (site, line) injections dropped in pass 2 for lack of a strong
    /// context.
    pub entries_dropped: usize,
}

impl PlanStats {
    /// Total injected instructions.
    pub fn ops_total(&self) -> usize {
        self.ops_plain + self.ops_cond + self.ops_coalesced + self.ops_cond_coalesced
    }

    /// Mean predictor blocks per adopted context.
    pub fn avg_ctx_blocks(&self) -> f64 {
        if self.contexts_adopted == 0 {
            0.0
        } else {
            self.context_blocks_total as f64 / self.contexts_adopted as f64
        }
    }

    /// Miss coverage of the plan at the planning level: covered / targeted.
    pub fn planned_coverage(&self) -> f64 {
        if self.target_lines == 0 {
            0.0
        } else {
            self.covered_lines as f64 / self.target_lines as f64
        }
    }

    /// Fraction of coalesced ops that bring in fewer than `n` lines
    /// (paper Fig. 20 reports < 4 lines for 82.4 % of coalesced prefetches).
    pub fn coalesced_fraction_below(&self, n: usize) -> f64 {
        let multi: u64 = self.lines_per_op_hist.iter().skip(1).sum();
        if multi == 0 {
            return 0.0;
        }
        let below: u64 = self.lines_per_op_hist.iter().take(n.saturating_sub(1)).skip(1).sum();
        below as f64 / multi as f64
    }
}

/// A finished plan: the injection map plus its statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Injected prefetch instructions, by site.
    pub injections: InjectionMap,
    /// Accounting for the evaluation harness.
    pub stats: PlanStats,
    /// The predictor blocks behind each adopted context, per site — kept so
    /// the harness can measure the context hash's false-positive rate
    /// (Fig. 21) against ground truth.
    pub context_details: Vec<(BlockId, Vec<BlockId>)>,
    /// One record per injected op, indexed by the [`ProvenanceId`] the op
    /// carries: the full decision chain behind the injection.
    pub provenance: Vec<ProvenanceRecord>,
}

/// Identity of one cached window search: the dynamic CFG it walked (by the
/// profile's [`Profile::baseline_digest`]), the block it searched back
/// from, the cycle ceiling and the node budget. The cycle floor is not part of it: a search runs with no
/// floor and each plan filters it ([`WindowSearch::within`]), so every
/// `min_prefetch_cycles` point shares one search. Content addressing makes
/// the cache safe across profile updates — a changed CFG or a shifted
/// dominant block simply keys a new entry instead of serving a stale one.
type WindowKey = (u64, u32, u32, usize);

/// Ranked history entries kept per line. The planner's pool pushes at most
/// five CFG predecessors and skips at most two blocks (site and target)
/// before truncating to at most [`MAX_CANDIDATES`], so the first
/// `MAX_CANDIDATES + 8` ranked entries always suffice.
const RANKED_KEEP: usize = MAX_CANDIDATES + 8;

/// A line's lift-ranked miss-history blocks ([`Planner::rank_predictors`]).
type Ranking = Arc<Vec<BlockId>>;

/// Identity of one joint-scan query. The target positions are derived from
/// the target block over the (fixed) trace, so the block id stands in for
/// them; everything else is the query verbatim, plus the LBR depth the scan
/// was run at. The candidates sit in a fixed array (first `num_candidates`
/// entries), so building a key allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct JointKey {
    site: u32,
    target: u32,
    horizon: u32,
    lbr: usize,
    num_candidates: usize,
    candidates: [u32; MAX_CANDIDATES],
}

impl JointKey {
    fn new(query: &JointQuery, target: BlockId, lbr: usize) -> Self {
        let mut candidates = [0; MAX_CANDIDATES];
        for (slot, b) in candidates.iter_mut().zip(&query.candidates) {
            *slot = b.0;
        }
        JointKey {
            site: query.site.0,
            target: target.0,
            horizon: query.horizon_blocks,
            lbr,
            num_candidates: query.candidates.len(),
            candidates,
        }
    }
}

/// The trace positions of every block in `blocks`, in one pass over the
/// trace: entry `i` lists the ascending indices at which `blocks[i]` runs.
/// Repeated blocks share one list. Blocks map to their lists through a
/// dense table indexed by block id.
fn trace_positions(trace: &Trace, blocks: &[BlockId]) -> Vec<Arc<[u32]>> {
    const UNWANTED: usize = usize::MAX;
    let mut slot = vec![UNWANTED; blocks.iter().map(|b| b.index() + 1).max().unwrap_or(0)];
    let mut lists: Vec<Vec<u32>> = Vec::new();
    let which: Vec<usize> = blocks
        .iter()
        .map(|b| {
            if slot[b.index()] == UNWANTED {
                slot[b.index()] = lists.len();
                lists.push(Vec::new());
            }
            slot[b.index()]
        })
        .collect();
    for (idx, block) in trace.iter().enumerate() {
        if let Some(&s) = slot.get(block.index()) {
            if s != UNWANTED {
                lists[s].push(idx as u32);
            }
        }
    }
    let lists: Vec<Arc<[u32]>> = lists.into_iter().map(Arc::from).collect();
    which.into_iter().map(|s| Arc::clone(&lists[s])).collect()
}

/// One line's memoized outcome under one planning config
/// ([`Planner::config_digest`]): the digest of the profile inputs it was
/// computed from (dynamic CFG, trace dimensions, the line's miss stats),
/// and the outcome.
#[derive(Debug)]
struct MemoSlot {
    config: u64,
    inputs: u64,
    outcome: Arc<LineOutcome>,
}

/// Reusable, thread-safe caches for [`Planner::plan`]'s staged
/// intermediates, each keyed on exactly the inputs its stage reads:
///
/// * per-block trace positions (the joint queries' targets);
/// * per-target window searches, keyed by (dynamic-CFG digest, target
///   block, `max_prefetch_cycles`, `max_search_nodes`) — content-addressed
///   through [`Profile::baseline_digest`],
///   so the cache stays valid when the profile evolves, and shared by every
///   `min_prefetch_cycles`;
/// * per-line predictor rankings (miss-history blocks by lift), one slot per
///   line under a digest of (that line's miss stats, dynamic CFG, trace
///   length, LBR depth) — each config point only truncates the list to its
///   `ctx_candidates`;
/// * joint LBR statistics per (site, target, horizon, LBR depth,
///   candidates) query — the linear trace scans feeding
///   [`crate::context::discover_multi`];
/// * a per-line outcome memo with one slot per (line, planning config):
///   the config part is a digest of the fields passes 1–2.5 read, with
///   `ctx_size` reduced to the subset bound it actually imposes, and a slot
///   holds the outcome computed from the digest of the line's other inputs
///   (its miss stats, the dynamic CFG, the trace dimensions) — the engine
///   behind [`Planner::replan_delta`], and the reason fig17's context sizes
///   above the candidate count replan for free.
///
/// Plans whose planning configs are equal take turns on one baseline, so
/// each (line, config, inputs) outcome is computed once whatever the thread
/// schedule: memo hits, and the work counters they skip, do not depend on
/// the order concurrent plans run in. Plans with different planning configs
/// share no memo slot and run concurrently.
///
/// Sensitivity sweeps (Figs. 12/17/18/19 and the ablations) replan the same
/// app under many configs; with a shared baseline each distinct search,
/// ranking and trace scan runs once instead of once per config point. A
/// baseline is valid for one fixed (program, trace) pair — callers (the
/// harness `Session`) keep one per prepared app. The *profile* may evolve
/// between plans via miss-only deltas
/// ([`ispy_profile::Profile::apply_miss_delta`]): every cached value is
/// either a pure function of (trace, query) or keyed by content digest, so
/// stale entries are unreachable rather than wrong.
///
/// [`Planner::plan_with_baseline`] is bit-identical to [`Planner::plan`]:
/// cached values are exactly what the fresh computation would produce, and
/// concurrent fills compute the same values. Cache misses are computed
/// under the cache lock, so concurrent sweeps of one app serialize their
/// scans instead of duplicating them (plans for *different* apps use
/// different baselines and stay fully parallel).
#[derive(Debug, Default)]
pub struct PlannerBaseline {
    /// Trace positions by block id (`None`: not computed yet).
    positions: Mutex<Vec<Option<Arc<[u32]>>>>,
    windows: Mutex<FxHashMap<WindowKey, Arc<WindowSearch>>>,
    /// One slot per line: (digest, ranking).
    rankings: Mutex<FxHashMap<u64, (u64, Ranking)>>,
    joint: Mutex<FxHashMap<JointKey, Arc<JointCounts>>>,
    line_memo: Mutex<FxHashMap<u64, Vec<MemoSlot>>>,
    memo_hits: AtomicU64,
    /// One turn-taking lock per planning config digest.
    config_turns: Mutex<FxHashMap<u64, Arc<Mutex<()>>>>,
}

impl PlannerBaseline {
    /// Creates an empty baseline (caches fill lazily on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The window search for one target block under `planner`'s cycle
    /// ceiling and node budget, run once per distinct (CFG, target, ceiling,
    /// budget). A search run here is counted into `work`.
    fn window_for(
        &self,
        planner: &Planner,
        profile_digest: u64,
        target_block: BlockId,
        work: &mut WorkCounters,
    ) -> Arc<WindowSearch> {
        let cfg = &planner.cfg;
        let key: WindowKey =
            (profile_digest, target_block.0, cfg.max_prefetch_cycles, cfg.max_search_nodes);
        let mut cache = self.windows.lock().expect("windows lock");
        Arc::clone(cache.entry(key).or_insert_with(|| {
            Arc::new(search_window(
                &planner.profile.cfg,
                target_block,
                cfg.max_prefetch_cycles,
                cfg.max_search_nodes,
                work,
            ))
        }))
    }

    /// `line_raw`'s predictor ranking under `digest`, computed on a miss.
    fn ranking_for(
        &self,
        line_raw: u64,
        digest: u64,
        compute: impl FnOnce() -> Vec<BlockId>,
    ) -> Ranking {
        let mut cache = self.rankings.lock().expect("rankings lock");
        match cache.get(&line_raw) {
            Some((d, v)) if *d == digest => Arc::clone(v),
            _ => {
                let v = Arc::new(compute());
                cache.insert(line_raw, (digest, Arc::clone(&v)));
                v
            }
        }
    }

    /// The lock that plans under planning config `config` take turns on.
    fn config_turn(&self, config: u64) -> Arc<Mutex<()>> {
        let mut turns = self.config_turns.lock().expect("turns lock");
        Arc::clone(turns.entry(config).or_default())
    }

    /// The memoized outcome for `line_raw` under `config`, if its stored
    /// inputs digest matches.
    fn memo_lookup(&self, line_raw: u64, config: u64, inputs: u64) -> Option<Arc<LineOutcome>> {
        let cache = self.line_memo.lock().expect("memo lock");
        let slot =
            cache.get(&line_raw)?.iter().find(|s| s.config == config && s.inputs == inputs)?;
        self.memo_hits.fetch_add(1, AtomicOrdering::Relaxed);
        Some(Arc::clone(&slot.outcome))
    }

    /// Stores one line's outcome, overwriting the line's slot for `config`.
    fn memo_store(&self, line_raw: u64, config: u64, inputs: u64, outcome: Arc<LineOutcome>) {
        let mut cache = self.line_memo.lock().expect("memo lock");
        let slots = cache.entry(line_raw).or_default();
        match slots.iter_mut().find(|s| s.config == config) {
            Some(slot) => *slot = MemoSlot { config, inputs, outcome },
            None => slots.push(MemoSlot { config, inputs, outcome }),
        }
    }

    /// Drops every memo slot of `lines` (the digest check would reject them
    /// anyway; eager removal keeps the map from accumulating dead slots).
    fn invalidate_lines(&self, lines: &[Line]) {
        let mut cache = self.line_memo.lock().expect("memo lock");
        for l in lines {
            cache.remove(&l.raw());
        }
    }

    /// Per-line outcomes served from the memo so far, over every plan made
    /// with this baseline (diagnostics).
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits.load(AtomicOrdering::Relaxed)
    }

    /// Trace positions for each of `blocks`, filling any uncached ones in
    /// one shared pass over the trace ([`trace_positions`]).
    fn positions_for(&self, trace: &Trace, blocks: &[BlockId]) -> Vec<Arc<[u32]>> {
        let mut cache = self.positions.lock().expect("positions lock");
        let missing: Vec<BlockId> = blocks
            .iter()
            .copied()
            .filter(|b| cache.get(b.index()).is_none_or(Option::is_none))
            .collect();
        if !missing.is_empty() {
            let fresh = trace_positions(trace, &missing);
            for (b, positions) in missing.iter().zip(fresh) {
                if cache.len() <= b.index() {
                    cache.resize(b.index() + 1, None);
                }
                cache[b.index()] = Some(positions);
            }
        }
        blocks
            .iter()
            .map(|b| Arc::clone(cache[b.index()].as_ref().expect("positions filled above")))
            .collect()
    }

    /// Answers `queries` (targets given as blocks) from the joint cache,
    /// scanning the trace once for whatever subset is uncached.
    fn resolve_joint(
        &self,
        planner: &Planner,
        queries: Vec<JointQuery>,
        targets: &[BlockId],
    ) -> Vec<Arc<JointCounts>> {
        let lbr = planner.profile.lbr_depth;
        let keys: Vec<JointKey> =
            queries.iter().zip(targets).map(|(q, &t)| JointKey::new(q, t, lbr)).collect();
        let mut cache = self.joint.lock().expect("joint lock");
        let mut missing: Vec<JointQuery> = Vec::new();
        let mut missing_keys: Vec<JointKey> = Vec::new();
        let mut missing_targets: Vec<BlockId> = Vec::new();
        for ((q, key), &target) in queries.into_iter().zip(&keys).zip(targets) {
            if !cache.contains_key(key) {
                missing.push(q);
                missing_keys.push(*key);
                missing_targets.push(target);
            }
        }
        if !missing.is_empty() {
            let positions = self.positions_for(planner.trace, &missing_targets);
            for (q, p) in missing.iter_mut().zip(positions) {
                q.target_positions = p;
            }
            let results = scan_joint(planner.trace, lbr, &missing);
            for (key, counts) in missing_keys.into_iter().zip(results) {
                cache.insert(key, Arc::new(counts));
            }
        }
        keys.iter().map(|k| Arc::clone(&cache[k])).collect()
    }
}

/// Pass-3 grouping key: (site block, sorted context-block ids).
type GroupKey = (u32, Vec<u32>);

/// Planning estimates carried from a [`Pending`] entry into pass 3, so each
/// emitted op's provenance record can report them per target line.
#[derive(Debug, Clone, Copy)]
struct LineMeta {
    miss_count: u64,
    site_presence: f64,
    site_precision: f64,
    reach_prob: f64,
    window_cycles: f64,
    /// `(probability, baseline, support)` of the adopted context, if any.
    ctx: Option<(f64, f64, u64)>,
}

/// One miss line's planning state between passes.
struct Pending {
    site: SelectedSite,
    /// Index of this entry's query in the joint scan, if one was issued.
    query: Option<usize>,
    /// Predictor candidates the query covered.
    candidates: Vec<BlockId>,
    /// Adopted contexts (empty = unconditional op).
    ctxs: Vec<ContextChoice>,
    /// Dropped in pass 2 (needs-context site without a strong context).
    dropped: bool,
}

/// One finished (site, line) decision, as stored in the per-line memo and
/// replayed into pass 3. Everything pass 3 emits is derivable from this
/// plus a fresh miss-count lookup.
#[derive(Debug)]
struct MemoEntry {
    site: SelectedSite,
    ctxs: Vec<ContextChoice>,
    dropped: bool,
}

impl MemoEntry {
    fn from_pending(p: &Pending) -> Self {
        MemoEntry { site: p.site, ctxs: p.ctxs.clone(), dropped: p.dropped }
    }
}

/// The complete planning outcome for one miss line, memoized under a digest
/// of every input the line's decisions depend on. Passes 1–2.5 have no
/// cross-line coupling, so replaying stored outcomes line by line
/// reproduces a fresh plan byte for byte.
#[derive(Debug)]
enum LineOutcome {
    /// The line's misses had no dominant block: uncovered.
    NoDominant,
    /// Site selection produced nothing: uncovered, with the
    /// no-candidates/no-sites distinction for the stats.
    NoSites { had_candidates: bool },
    /// Covered: the pass-2 entries (selection order) and any pass-2.5 retry
    /// entries (rank order), dropped ones included so pass 3 can count them.
    Covered { entries: Vec<MemoEntry>, retry: Vec<MemoEntry> },
}

/// The I-SPY offline analyzer.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Planner<'a> {
    program: &'a Program,
    trace: &'a Trace,
    profile: &'a Profile,
    cfg: IspyConfig,
}

impl<'a> Planner<'a> {
    /// Creates a planner over one application's profile.
    pub fn new(
        program: &'a Program,
        trace: &'a Trace,
        profile: &'a Profile,
        cfg: IspyConfig,
    ) -> Self {
        Planner { program, trace, profile, cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &IspyConfig {
        &self.cfg
    }

    /// A line's miss-history blocks with presence ≥ 5% of its misses and a
    /// lift ≥ 1.2 over their base rate, strongest lift first (ties by block
    /// id), cut to the first [`RANKED_KEEP`]. This half of the predictor
    /// pool reads no config and no site, so it is computed once per line.
    fn rank_predictors(&self, line_stats: &LineMissStats) -> Vec<BlockId> {
        let trace_len = self.profile.trace_len.max(1) as f64;
        let depth = self.profile.lbr_depth as f64;
        let mut scored: Vec<(f64, BlockId)> = line_stats
            .history_presence
            .iter()
            .filter_map(|(&b, &pres)| {
                let frac = pres as f64 / line_stats.count as f64;
                // Keep even low-presence candidates: each may predict only
                // its own calling context's share of the instances
                // (multi-context discovery covers the rest).
                if frac < 0.05 {
                    return None;
                }
                let expected =
                    (self.profile.cfg.exec_count(b) as f64 * depth / trace_len).clamp(1e-9, 1.0);
                let lift = frac / expected;
                (lift >= 1.2).then_some((lift, b))
            })
            .collect();
        let by_lift = |a: &(f64, BlockId), b: &(f64, BlockId)| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1 .0.cmp(&b.1 .0))
        };
        if scored.len() > RANKED_KEEP {
            scored.select_nth_unstable_by(RANKED_KEEP - 1, by_lift);
            scored.truncate(RANKED_KEEP);
        }
        scored.sort_unstable_by(by_lift);
        scored.into_iter().map(|(_, b)| b).collect()
    }

    /// Predictor-candidate pool for one (site, target): the site's dynamic
    /// predecessors (Fig. 6's path-into-the-site blocks) plus the line's
    /// `ranked` miss-history blocks ([`Planner::rank_predictors`]).
    fn predictor_candidates(
        &self,
        ranked: &[BlockId],
        site_block: BlockId,
        target_block: BlockId,
    ) -> Vec<BlockId> {
        // Blocks on the paths *into the site* are the strongest
        // discriminators: at run time the LBR provably contains the site's
        // recent predecessors.
        let mut predictors: Vec<BlockId> = Vec::new();
        let push = |b: BlockId, out: &mut Vec<BlockId>| {
            if b != site_block && b != target_block && !out.contains(&b) {
                out.push(b);
            }
        };
        let site_preds = self.profile.cfg.preds(site_block);
        for &(p, _) in site_preds.iter().take(3) {
            push(p, &mut predictors);
        }
        if let Some(&(top_pred, _)) = site_preds.first() {
            for &(pp, _) in self.profile.cfg.preds(top_pred).iter().take(2) {
                push(pp, &mut predictors);
            }
        }
        for &b in ranked {
            push(b, &mut predictors);
        }
        predictors.truncate(self.cfg.ctx_candidates.min(MAX_CANDIDATES));
        predictors
    }

    /// Context discovery ([`crate::context::discover_multi`]) for one
    /// query's counts under this plan's config, counted into `work`.
    fn discover(
        &self,
        counts: &JointCounts,
        candidates: &[BlockId],
        work: &mut WorkCounters,
    ) -> (Vec<ContextChoice>, f64) {
        work.discovery(greedy_cover(
            counts,
            candidates,
            self.cfg.ctx_size,
            self.cfg.min_ctx_support,
            self.cfg.ctx_gain_margin,
            self.cfg.min_ctx_probability,
            self.cfg.max_contexts_per_site,
        ))
    }

    /// Runs the analysis and produces the plan.
    pub fn plan(&self) -> Plan {
        self.plan_impl(None)
    }

    /// Runs the analysis, reusing (and filling) `baseline`'s caches for the
    /// config-independent trace-scan state. Produces a bit-identical plan
    /// to [`Planner::plan`]; the baseline must have been created for this
    /// planner's exact (program, trace, profile).
    pub fn plan_with_baseline(&self, baseline: &PlannerBaseline) -> Plan {
        self.plan_impl(Some(baseline))
    }

    /// Resolves joint queries either directly (one fresh scan for the whole
    /// batch) or through the baseline's cache.
    fn resolve_queries(
        &self,
        mut queries: Vec<JointQuery>,
        targets: &[BlockId],
        baseline: Option<&PlannerBaseline>,
    ) -> Vec<Arc<JointCounts>> {
        match baseline {
            None => {
                for (q, p) in queries.iter_mut().zip(trace_positions(self.trace, targets)) {
                    q.target_positions = p;
                }
                scan_joint(self.trace, self.profile.lbr_depth, &queries)
                    .into_iter()
                    .map(Arc::new)
                    .collect()
            }
            Some(b) => b.resolve_joint(self, queries, targets),
        }
    }

    fn plan_impl(&self, baseline: Option<&PlannerBaseline>) -> Plan {
        let tele = ispy_telemetry::global();
        let _plan_span = tele.span("core.plan");
        let mut stats = PlanStats {
            coalesced_distance_hist: vec![0; usize::from(self.cfg.coalesce_bits)],
            lines_per_op_hist: vec![0; usize::from(self.cfg.coalesce_bits) + 1],
            ..Default::default()
        };

        // One covered line's fresh (non-memoized) working state.
        struct FreshLine {
            line: Line,
            /// Digest of the line's profile inputs (memo and ranking key).
            inputs: u64,
            target_block: BlockId,
            /// The line's predictor ranking (empty when planning is
            /// unconditional), reused by its retry sites.
            ranked: Ranking,
            entries: Vec<Pending>,
            spares: Vec<SiteCandidate>,
            retry: Vec<Pending>,
        }
        // Where a covered line's outcome comes from, in miss-count order.
        enum Source {
            Memo(Arc<LineOutcome>),
            Fresh(usize),
        }

        // With a baseline, per-line outcomes are memoized under digests of
        // everything one line's plan depends on; a hit skips the line's
        // site selection and context discovery entirely (the delta-replan
        // fast path). `plan()` runs every line fresh through the same code.
        // The profile digest covers the dynamic CFG and trace dimensions.
        let (profile_digest, config_digest) = if baseline.is_some() {
            (self.profile.baseline_digest(), self.config_digest())
        } else {
            (0, 0)
        };
        // Plans under one planning config take turns (see PlannerBaseline)
        // until their line outcomes are memoized. The lock guards no data,
        // so a turn poisoned by a panicking plan is still a turn.
        let turn = baseline.map(|b| b.config_turn(config_digest));
        let turn_guard = turn.as_ref().map(|t| t.lock().unwrap_or_else(PoisonError::into_inner));
        let conditional = self.cfg.conditional && self.cfg.ctx_size > 0;
        // Window and context work, added to telemetry once at the end.
        let mut work = WorkCounters::default();
        let mut memo_hits = 0u64;
        let mut memo_misses = 0u64;

        // ---- Pass 1: site selection + joint-query construction. ----------
        let mut covered: Vec<(Line, Source)> = Vec::new();
        let mut fresh: Vec<FreshLine> = Vec::new();
        let mut queries: Vec<JointQuery> = Vec::new();
        // Miss block each query targets; positions are filled in afterwards.
        let mut query_targets: Vec<BlockId> = Vec::new();
        for (line, line_stats) in self.profile.misses.lines_by_count() {
            if line_stats.count < self.cfg.min_miss_count {
                continue;
            }
            stats.target_lines += 1;
            let mut inputs = 0;
            if let Some(b) = baseline {
                let mut h = ContentHasher::new();
                h.write_u64(profile_digest);
                h.write_u64(line_stats.content_digest());
                inputs = h.finish();
                if let Some(outcome) = b.memo_lookup(line.raw(), config_digest, inputs) {
                    memo_hits += 1;
                    match outcome.as_ref() {
                        LineOutcome::NoDominant => stats.uncovered_lines += 1,
                        LineOutcome::NoSites { had_candidates } => {
                            stats.uncovered_lines += 1;
                            if *had_candidates {
                                stats.lines_no_sites += 1;
                            } else {
                                stats.lines_no_candidates += 1;
                            }
                        }
                        LineOutcome::Covered { .. } => {
                            stats.covered_lines += 1;
                            covered.push((line, Source::Memo(outcome)));
                        }
                    }
                    continue;
                }
                memo_misses += 1;
            }
            let Some(target_block) = line_stats.dominant_block() else {
                stats.uncovered_lines += 1;
                if let Some(b) = baseline {
                    let outcome = Arc::new(LineOutcome::NoDominant);
                    b.memo_store(line.raw(), config_digest, inputs, outcome);
                }
                continue;
            };
            let min = self.cfg.min_prefetch_cycles;
            let candidates = match baseline {
                Some(b) => b
                    .window_for(self, profile_digest, target_block, &mut work)
                    .within(min, &mut work),
                None => search_window(
                    &self.profile.cfg,
                    target_block,
                    self.cfg.max_prefetch_cycles,
                    self.cfg.max_search_nodes,
                    &mut work,
                )
                .within(min, &mut work),
            };
            // Coverage- and precision-driven multi-site selection: a miss
            // reached over several paths gets one prefetch per covering
            // path; imprecise sites are admitted only because the run-time
            // condition will keep them accurate (§III-A).
            let policy = SelectionPolicy {
                max_sites: self.cfg.max_sites_per_line,
                min_presence: self.cfg.min_site_presence,
                min_unconditional_precision: self.cfg.min_unconditional_precision,
                min_conditional_precision: self.cfg.min_conditional_precision,
                allow_conditional: conditional,
            };
            let sites = select_covering_sites(
                &candidates,
                |b| line_stats.history_presence.get(&b).copied().unwrap_or(0),
                |b| self.profile.cfg.exec_count(b),
                line_stats.count,
                &policy,
            );
            if sites.is_empty() {
                stats.uncovered_lines += 1;
                let had_candidates = !candidates.is_empty();
                if had_candidates {
                    stats.lines_no_sites += 1;
                } else {
                    stats.lines_no_candidates += 1;
                }
                if let Some(b) = baseline {
                    let outcome = Arc::new(LineOutcome::NoSites { had_candidates });
                    b.memo_store(line.raw(), config_digest, inputs, outcome);
                }
                continue;
            }
            stats.covered_lines += 1;
            let ranked: Ranking = match baseline {
                _ if !conditional => Arc::default(),
                Some(b) => b.ranking_for(line.raw(), inputs, || self.rank_predictors(line_stats)),
                None => Arc::new(self.rank_predictors(line_stats)),
            };
            let chosen_blocks: Vec<BlockId> = sites.iter().map(|s| s.cand.block).collect();
            let spares: Vec<SiteCandidate> =
                candidates.iter().filter(|c| !chosen_blocks.contains(&c.block)).copied().collect();
            let mut entries: Vec<Pending> = Vec::new();

            for site in sites {
                let mut entry = Pending {
                    site,
                    query: None,
                    candidates: Vec::new(),
                    ctxs: Vec::new(),
                    dropped: false,
                };
                if conditional {
                    let predictors =
                        self.predictor_candidates(&ranked, site.cand.block, target_block);
                    if !predictors.is_empty() {
                        // Label horizon: how far ahead "reaching the target"
                        // still counts. The max prefetch distance expressed
                        // in blocks (ideal cycles / avg block cost), with
                        // slack for runtime path variance.
                        let horizon = (site.cand.blocks * 3).max(64);
                        // The context is scored on *reaching the miss block*
                        // (path probability, as in Fig. 6), not on the miss
                        // re-occurring: misses are self-erasing once the
                        // line is cached, whereas the prefetch should fire
                        // whenever the line is about to be needed (a
                        // resident prefetch is cheap, §VII). The block's
                        // trace positions are filled in after this pass.
                        queries.push(JointQuery {
                            site: site.cand.block,
                            target_positions: Arc::from([]),
                            candidates: predictors.clone(),
                            horizon_blocks: horizon,
                        });
                        query_targets.push(target_block);
                        entry.query = Some(queries.len() - 1);
                        entry.candidates = predictors;
                    }
                }
                entries.push(entry);
            }
            covered.push((line, Source::Fresh(fresh.len())));
            fresh.push(FreshLine {
                line,
                inputs,
                target_block,
                ranked,
                entries,
                spares,
                retry: Vec::new(),
            });
        }

        // ---- Pass 2: one linear scan answers every context query. --------
        // Fresh lines only — memoized lines already carry their decisions.
        let results = if queries.is_empty() {
            Vec::new()
        } else {
            self.resolve_queries(queries, &query_targets, baseline)
        };
        for fl in &mut fresh {
            for entry in &mut fl.entries {
                let Some(qi) = entry.query else {
                    // Needs-context sites with no query (no predictor
                    // candidates at all) cannot be repaired: drop them.
                    if entry.site.needs_ctx {
                        entry.dropped = true;
                    }
                    continue;
                };
                let counts = &results[qi];
                // Zero fan-out at run time: the site almost always leads to
                // the miss; no condition needed (§IV).
                let unconditional = counts.conditional_probability(0).unwrap_or(0.0);
                if unconditional >= self.cfg.zero_fanout_threshold {
                    continue;
                }
                let (ctxs, coverage) = self.discover(counts, &entry.candidates, &mut work);
                if entry.site.needs_ctx {
                    // An imprecise site is kept conditionally when contexts
                    // make its firings likely to be useful; failing that it
                    // survives unconditionally only if its raw reach is
                    // already decent (most firings land on a soon-needed
                    // line); otherwise it is dropped.
                    if !ctxs.is_empty() {
                        entry.ctxs = ctxs;
                    } else if unconditional < self.cfg.min_unconditional_reach {
                        entry.dropped = true;
                    }
                } else if !ctxs.is_empty() && coverage >= 0.8 {
                    // A precise site adopts contexts only when they retain
                    // (almost) all of its coverage while raising accuracy.
                    entry.ctxs = ctxs;
                }
            }
        }

        // ---- Pass 2.5: retry lines whose every injection was dropped. -----
        // A line can lose all its first-choice sites when none of them finds
        // a usable context; its remaining window candidates get one more
        // attempt (always as conditional sites). Fresh lines only: a
        // memoized line carries its retry entries in its stored outcome.
        if conditional {
            let mut retry_queries: Vec<JointQuery> = Vec::new();
            let mut retry_targets: Vec<BlockId> = Vec::new();
            for fl in &mut fresh {
                if fl.spares.is_empty() || fl.entries.iter().any(|e| !e.dropped) {
                    continue;
                }
                let line = fl.line;
                let target_block = fl.target_block;
                let Some(line_stats) = self.profile.misses.line(line) else { continue };
                // Each spare's presence, looked up once (not per comparison).
                let mut ranked: Vec<(u64, SiteCandidate)> = fl
                    .spares
                    .iter()
                    .map(|&c| (line_stats.history_presence.get(&c.block).copied().unwrap_or(0), c))
                    .collect();
                ranked.sort_by(|a, b| {
                    b.0.cmp(&a.0).then_with(|| {
                        b.1.cycles
                            .partial_cmp(&a.1.cycles)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then_with(|| a.1.block.0.cmp(&b.1.block.0))
                    })
                });
                let mut taken = 0;
                for (pres, cand) in ranked {
                    if taken >= 2 {
                        break;
                    }
                    let execs = self.profile.cfg.exec_count(cand.block).max(1);
                    let precision = (pres as f64 / execs as f64).min(1.0);
                    // Even a conditional op *executes* on every site pass;
                    // the precision floor bounds the dynamic overhead.
                    if precision < self.cfg.min_conditional_precision {
                        continue;
                    }
                    let predictors =
                        self.predictor_candidates(&fl.ranked, cand.block, target_block);
                    if predictors.is_empty() {
                        continue;
                    }
                    taken += 1;
                    let site = SelectedSite {
                        cand,
                        presence_frac: pres as f64 / line_stats.count.max(1) as f64,
                        precision,
                        needs_ctx: true,
                    };
                    let horizon = (cand.blocks * 3).max(64);
                    retry_queries.push(JointQuery {
                        site: cand.block,
                        target_positions: Arc::from([]),
                        candidates: predictors.clone(),
                        horizon_blocks: horizon,
                    });
                    retry_targets.push(target_block);
                    fl.retry.push(Pending {
                        site,
                        query: Some(retry_queries.len() - 1),
                        candidates: predictors,
                        ctxs: Vec::new(),
                        dropped: false,
                    });
                }
            }
            if !retry_queries.is_empty() {
                let results = self.resolve_queries(retry_queries, &retry_targets, baseline);
                for fl in &mut fresh {
                    for entry in &mut fl.retry {
                        let counts = &results[entry.query.expect("retry entries carry queries")];
                        let unconditional = counts.conditional_probability(0).unwrap_or(0.0);
                        if unconditional >= self.cfg.zero_fanout_threshold {
                            continue;
                        }
                        let (ctxs, _) = self.discover(counts, &entry.candidates, &mut work);
                        if !ctxs.is_empty() {
                            entry.ctxs = ctxs;
                        } else if unconditional < self.cfg.min_unconditional_reach
                            || entry.site.precision < self.cfg.min_conditional_precision
                        {
                            entry.dropped = true;
                        }
                    }
                }
            }
        }

        // ---- Memoize: fresh lines' finished outcomes, by content digest. --
        let fresh_outcomes: Vec<Arc<LineOutcome>> = fresh
            .iter()
            .map(|fl| {
                let outcome = Arc::new(LineOutcome::Covered {
                    entries: fl.entries.iter().map(MemoEntry::from_pending).collect(),
                    retry: fl.retry.iter().map(MemoEntry::from_pending).collect(),
                });
                if let Some(b) = baseline {
                    b.memo_store(fl.line.raw(), config_digest, fl.inputs, Arc::clone(&outcome));
                }
                outcome
            })
            .collect();

        drop(turn_guard);

        // ---- Pass 3: group by (site, context), coalesce, emit. ------------
        // Canonical order, independent of the memo/fresh split: every
        // covered line's pass-2 entries in miss-count order first, then
        // retry entries in ascending line order (the order the old
        // single-vector pipeline produced them in).
        let mut groups: BTreeMap<GroupKey, Vec<(Line, LineMeta)>> = BTreeMap::new();
        let mut retry_lines: BTreeMap<u64, (Line, Arc<LineOutcome>)> = BTreeMap::new();
        for (line, source) in &covered {
            let outcome = match source {
                Source::Memo(o) => Arc::clone(o),
                Source::Fresh(i) => Arc::clone(&fresh_outcomes[*i]),
            };
            let LineOutcome::Covered { entries, retry } = outcome.as_ref() else {
                unreachable!("only covered lines are listed")
            };
            for entry in entries {
                self.emit_entry(&mut stats, &mut groups, *line, entry);
            }
            if !retry.is_empty() {
                retry_lines.insert(line.raw(), (*line, Arc::clone(&outcome)));
            }
        }
        for (line, outcome) in retry_lines.values() {
            let LineOutcome::Covered { retry, .. } = outcome.as_ref() else {
                unreachable!("only covered lines retry")
            };
            for entry in retry {
                self.emit_entry(&mut stats, &mut groups, *line, entry);
            }
        }

        let mut injections = InjectionMap::new();
        let mut provenance: Vec<ProvenanceRecord> = Vec::new();
        let mut context_details: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        for ((site_raw, ctx_blocks), entries) in groups {
            let site = BlockId(site_raw);
            let ctx_hash: Option<ContextHash> = if ctx_blocks.is_empty() {
                None
            } else {
                context_details.push((site, ctx_blocks.iter().map(|&b| BlockId(b)).collect()));
                Some(self.cfg.hash.context_hash(
                    ctx_blocks.iter().map(|&b| self.program.block(BlockId(b)).start()),
                ))
            };
            // Per-line metadata for the provenance records; keep-first on a
            // duplicate line keeps the choice deterministic (entries arrive
            // in pass order).
            let mut metas: BTreeMap<u64, LineMeta> = BTreeMap::new();
            let mut lines: Vec<Line> = Vec::with_capacity(entries.len());
            for (line, meta) in entries {
                lines.push(line);
                metas.entry(line.raw()).or_insert(meta);
            }
            let packed: Vec<CoalescedGroup> = if self.cfg.coalescing {
                coalesce_lines(lines, self.cfg.coalesce_bits)
            } else {
                let mut ls = lines;
                ls.sort();
                ls.dedup();
                ls.into_iter().map(|base| CoalescedGroup { base, mask: None }).collect()
            };
            for group in packed {
                let op = match (ctx_hash, group.mask) {
                    (Some(ctx), Some(mask)) => {
                        stats.ops_cond_coalesced += 1;
                        PrefetchOp::CondCoalesced { base: group.base, mask, ctx }
                    }
                    (Some(ctx), None) => {
                        stats.ops_cond += 1;
                        PrefetchOp::Cond { target: group.base, ctx }
                    }
                    (None, Some(mask)) => {
                        stats.ops_coalesced += 1;
                        PrefetchOp::Coalesced { base: group.base, mask }
                    }
                    (None, None) => {
                        stats.ops_plain += 1;
                        PrefetchOp::Plain { target: group.base }
                    }
                };
                let mut targets = vec![group.base];
                if let Some(mask) = group.mask {
                    for extra in mask.decode(group.base) {
                        let d = extra.distance_from(group.base).expect("forward") as usize;
                        stats.coalesced_distance_hist[d - 1] += 1;
                        targets.push(extra);
                    }
                }
                let lines_count = group.line_count() as usize;
                let idx = (lines_count - 1).min(stats.lines_per_op_hist.len() - 1);
                stats.lines_per_op_hist[idx] += 1;
                let id = ProvenanceId(provenance.len() as u32);
                let rec_lines: Vec<PlannedLine> = targets
                    .iter()
                    .map(|&l| {
                        let meta = metas.get(&l.raw()).copied().expect("emitted line was grouped");
                        PlannedLine {
                            line: l,
                            miss_count: meta.miss_count,
                            site_presence: meta.site_presence,
                            site_precision: meta.site_precision,
                            reach_prob: meta.reach_prob,
                            window_cycles: meta.window_cycles,
                            ctx_probability: meta.ctx.map(|(p, _, _)| p),
                            ctx_baseline: meta.ctx.map(|(_, b, _)| b),
                            ctx_support: meta.ctx.map(|(_, _, s)| s),
                        }
                    })
                    .collect();
                provenance.push(ProvenanceRecord {
                    id,
                    site,
                    mnemonic: op.mnemonic(),
                    base_line: group.base,
                    mask: group.mask,
                    context_blocks: ctx_blocks.iter().map(|&b| BlockId(b)).collect(),
                    lines: rec_lines,
                });
                injections.push_traced(site, op, id);
            }
        }

        stats.sites = injections.num_sites();
        stats.injected_bytes = injections.injected_bytes();
        stats.static_increase = injections.static_increase(self.program.text_bytes());
        tele.add("core.plan.calls", 1);
        tele.add("core.plan.target_lines", stats.target_lines as u64);
        tele.add("core.plan.covered_lines", stats.covered_lines as u64);
        tele.add("core.plan.entries_dropped", stats.entries_dropped as u64);
        tele.add("core.plan.contexts_adopted", stats.contexts_adopted as u64);
        tele.add("core.plan.ops_emitted", provenance.len() as u64);
        tele.add("core.plan.memo_hits", memo_hits);
        tele.add("core.plan.memo_misses", memo_misses);
        work.flush(&tele);
        Plan { injections, stats, context_details, provenance }
    }

    /// The planning config: a digest of the [`IspyConfig`] fields passes
    /// 1–2.5 read, the config half of every line-memo key. Pass 3's fields
    /// (`coalescing`, `coalesce_bits`, `hash`) are left out, and `ctx_size`
    /// enters only as the subset-size bound it imposes: context queries
    /// never have more than `min(ctx_candidates, MAX_CANDIDATES)`
    /// candidates, so larger sizes behave alike, while 0 (context discovery
    /// off) stays distinct.
    fn config_digest(&self) -> u64 {
        let c = &self.cfg;
        let mut h = ContentHasher::new();
        h.write_u32(c.min_prefetch_cycles);
        h.write_u32(c.max_prefetch_cycles);
        h.write_u32(u32::from(c.ctx_size > 0));
        h.write_usize(c.ctx_size.min(c.ctx_candidates.min(MAX_CANDIDATES)));
        h.write_usize(c.ctx_candidates);
        h.write_u32(u32::from(c.conditional));
        h.write_u64(c.min_miss_count);
        h.write_u64(c.min_ctx_support);
        h.write_f64(c.ctx_gain_margin);
        h.write_f64(c.zero_fanout_threshold);
        h.write_usize(c.max_search_nodes);
        h.write_usize(c.max_sites_per_line);
        h.write_f64(c.min_site_presence);
        h.write_f64(c.min_unconditional_precision);
        h.write_f64(c.min_conditional_precision);
        h.write_f64(c.min_ctx_probability);
        h.write_usize(c.max_contexts_per_site);
        h.write_f64(c.min_unconditional_reach);
        h.finish()
    }

    /// Pushes one finished (site, line) decision into the pass-3 groups,
    /// updating the drop/context accounting exactly as the non-memoized
    /// pipeline did.
    fn emit_entry(
        &self,
        stats: &mut PlanStats,
        groups: &mut BTreeMap<GroupKey, Vec<(Line, LineMeta)>>,
        line: Line,
        entry: &MemoEntry,
    ) {
        if entry.dropped {
            stats.entries_dropped += 1;
            return;
        }
        let meta = LineMeta {
            miss_count: self.profile.misses.line(line).map_or(0, |s| s.count),
            site_presence: entry.site.presence_frac,
            site_precision: entry.site.precision,
            reach_prob: entry.site.cand.reach_prob,
            window_cycles: entry.site.cand.cycles,
            ctx: None,
        };
        if entry.ctxs.is_empty() {
            groups.entry((entry.site.cand.block.0, Vec::new())).or_default().push((line, meta));
            return;
        }
        for ctx in &entry.ctxs {
            let mut ids: Vec<u32> = ctx.blocks.iter().map(|b| b.0).collect();
            ids.sort_unstable();
            stats.contexts_adopted += 1;
            stats.context_blocks_total += ctx.blocks.len();
            let meta = LineMeta { ctx: Some((ctx.probability, ctx.baseline, ctx.support)), ..meta };
            groups.entry((entry.site.cand.block.0, ids)).or_default().push((line, meta));
        }
    }

    /// Replans after `delta` has already been folded into this planner's
    /// profile (via [`ispy_profile::Profile::apply_miss_delta`]), reusing
    /// `baseline`'s staged caches and per-line memo. The result is
    /// byte-identical to a from-scratch [`Planner::plan`] over the updated
    /// profile, but only lines whose miss sets changed are re-analyzed and
    /// only the windows they touch are re-coalesced — O(delta) planning
    /// work instead of O(profile).
    pub fn replan_delta(&self, baseline: &PlannerBaseline, delta: &ProfileDelta) -> Plan {
        // The digest check alone would reject stale slots; eager
        // invalidation also evicts lines the delta removed outright.
        baseline.invalidate_lines(&delta.touched_lines());
        self.plan_with_baseline(baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispy_profile::{profile, SampleRate};
    use ispy_sim::{run, RunOptions, SimConfig};
    use ispy_trace::apps;
    use std::collections::HashMap;

    fn planned(
        model: ispy_trace::AppModel,
        events: usize,
        cfg: IspyConfig,
    ) -> (Program, Trace, Plan) {
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), events);
        let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        let plan = Planner::new(&program, &trace, &prof, cfg).plan();
        (program, trace, plan)
    }

    #[test]
    fn plan_produces_ops_and_accounting() {
        let (_, _, plan) =
            planned(apps::cassandra().scaled_down(30), 30_000, IspyConfig::default());
        assert!(plan.stats.target_lines > 10);
        assert!(plan.stats.covered_lines > 0);
        assert_eq!(plan.stats.ops_total(), plan.injections.num_ops());
        assert!(plan.stats.injected_bytes > 0);
        assert!(plan.stats.static_increase > 0.0);
    }

    #[test]
    fn plan_speeds_up_execution() {
        let (program, trace, plan) =
            planned(apps::cassandra().scaled_down(30), 40_000, IspyConfig::default());
        let scfg = SimConfig::default();
        let base = run(&program, &trace, &scfg, RunOptions::default());
        let with = run(
            &program,
            &trace,
            &scfg,
            RunOptions { injections: Some(&plan.injections), ..Default::default() },
        );
        assert!(
            with.cycles < base.cycles,
            "I-SPY must speed up: {} vs {}",
            with.cycles,
            base.cycles
        );
        assert!(with.i_misses < base.i_misses);
        assert!(with.pf_useful > 0);
    }

    #[test]
    fn conditional_only_has_no_coalesced_ops() {
        let (_, _, plan) =
            planned(apps::cassandra().scaled_down(30), 20_000, IspyConfig::conditional_only());
        assert_eq!(plan.stats.ops_coalesced, 0);
        assert_eq!(plan.stats.ops_cond_coalesced, 0);
    }

    #[test]
    fn coalescing_only_has_no_conditional_ops() {
        let (_, _, plan) =
            planned(apps::cassandra().scaled_down(30), 20_000, IspyConfig::coalescing_only());
        assert_eq!(plan.stats.ops_cond, 0);
        assert_eq!(plan.stats.ops_cond_coalesced, 0);
        assert_eq!(plan.stats.contexts_adopted, 0);
    }

    #[test]
    fn coalescing_reduces_op_count() {
        let model = apps::verilator().scaled_down(30);
        let (_, _, with) = planned(model.clone(), 20_000, IspyConfig::coalescing_only());
        let (_, _, without) = planned(model, 20_000, IspyConfig::plain());
        assert!(
            with.stats.ops_total() < without.stats.ops_total(),
            "coalescing must shrink the op count on spatially-local verilator: {} vs {}",
            with.stats.ops_total(),
            without.stats.ops_total()
        );
        assert!(with.stats.injected_bytes < without.stats.injected_bytes);
    }

    #[test]
    fn injections_respect_coalesce_window() {
        let (_, _, plan) =
            planned(apps::verilator().scaled_down(30), 20_000, IspyConfig::default());
        for (_, ops) in plan.injections.iter() {
            for op in ops {
                let targets = op.target_lines();
                let base = op.base_line();
                for t in &targets {
                    let d = t.distance_from(base).expect("targets at/after base");
                    assert!(d <= 8, "distance {d} exceeds the 8-line window");
                }
            }
        }
    }

    #[test]
    fn baseline_replanning_matches_fresh_plans() {
        // One shared baseline across every config variant of one app must
        // reproduce each fresh plan exactly — injections, stats, contexts
        // and provenance — even though window searches, rankings, positions,
        // joint counts and line outcomes come from caches warmed by *other*
        // variants. The grid is fig17's context sizes and fig18's distance
        // points plus the ablations and edge cases, planned forward and then
        // in reverse so every stage meets both cold and warm neighbours.
        // On this app every fig17 point plans differently from its
        // neighbours, so a memo key that merged two of them would show.
        let model = apps::wordpress().scaled_down(30);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 25_000);
        let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        let mut variants: Vec<IspyConfig> = [1, 2, 4, 8, 16, 32]
            .iter()
            .map(|&n| IspyConfig::conditional_only().with_ctx_size(n))
            .collect();
        for min in [5, 15, 27, 60, 100] {
            variants.push(IspyConfig::default().with_distances(min, 200));
        }
        for max in [60, 120, 200, 300] {
            variants.push(IspyConfig::default().with_distances(27, max));
        }
        variants.extend([
            IspyConfig::default(),
            IspyConfig::conditional_only(),
            IspyConfig::coalescing_only(),
            IspyConfig::plain(),
            IspyConfig::default().with_ctx_size(2),
            IspyConfig::default().with_ctx_size(8),
            IspyConfig::default().with_coalesce_bits(4),
            IspyConfig { ctx_size: 0, ..IspyConfig::default() },
            IspyConfig::default().with_ctx_size(16),
            IspyConfig::default().with_ctx_size(32),
            IspyConfig { ctx_candidates: 0, ..IspyConfig::default() },
            IspyConfig { ctx_candidates: 8, ..IspyConfig::default() },
            IspyConfig { ctx_size: 0, ctx_candidates: 0, ..IspyConfig::default() },
        ]);
        let fresh: Vec<Plan> = variants
            .iter()
            .map(|cfg| Planner::new(&program, &trace, &prof, cfg.clone()).plan())
            .collect();
        let baseline = PlannerBaseline::new();
        let order: Vec<usize> = (0..variants.len()).chain((0..variants.len()).rev()).collect();
        for (step, &i) in order.iter().enumerate() {
            let cfg = &variants[i];
            let hits_before = baseline.memo_hits();
            let reused =
                Planner::new(&program, &trace, &prof, cfg.clone()).plan_with_baseline(&baseline);
            assert_eq!(fresh[i].injections, reused.injections, "cfg {cfg:?}");
            assert_eq!(fresh[i].stats, reused.stats, "cfg {cfg:?}");
            assert_eq!(fresh[i].context_details, reused.context_details, "cfg {cfg:?}");
            assert_eq!(fresh[i].provenance, reused.provenance, "cfg {cfg:?}");
            // fig17's ctx16 and ctx32 bound subsets no tighter than ctx8's
            // eight candidates, so right after ctx8 every line is a memo hit.
            if step == 4 || step == 5 {
                assert_eq!(cfg.ctx_size, [16, 32][step - 4]);
                let hits = baseline.memo_hits() - hits_before;
                assert!(hits > 0, "ctx{} must reuse ctx8's line outcomes", cfg.ctx_size);
                assert_eq!(hits, reused.stats.target_lines as u64, "cfg {cfg:?}");
            }
        }
    }

    /// The predictor pool from the full, untruncated lift ranking with the
    /// site and target excluded up front: the definition the shared,
    /// truncated per-line ranking must reproduce.
    fn reference_pool(
        planner: &Planner,
        stats: &LineMissStats,
        site: BlockId,
        target: BlockId,
    ) -> Vec<BlockId> {
        let prof = planner.profile;
        let mut scored: Vec<(f64, BlockId)> = stats
            .history_presence
            .iter()
            .filter(|(b, _)| **b != site && **b != target)
            .filter_map(|(&b, &pres)| {
                let frac = pres as f64 / stats.count as f64;
                let expected = (prof.cfg.exec_count(b) as f64 * prof.lbr_depth as f64
                    / prof.trace_len as f64)
                    .clamp(1e-9, 1.0);
                (frac >= 0.05 && frac / expected >= 1.2).then_some((frac / expected, b))
            })
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then_with(|| a.1 .0.cmp(&b.1 .0)));
        let mut pool: Vec<BlockId> = Vec::new();
        let preds = prof.cfg.preds(site);
        let top = preds.first().map(|&(p, _)| prof.cfg.preds(p)).unwrap_or(&[]);
        let pushed = preds.iter().take(3).chain(top.iter().take(2)).map(|&(p, _)| p);
        for b in pushed.chain(scored.into_iter().map(|(_, b)| b)) {
            if b != site && b != target && !pool.contains(&b) {
                pool.push(b);
            }
        }
        pool.truncate(planner.cfg.ctx_candidates.min(MAX_CANDIDATES));
        pool
    }

    #[test]
    fn ranked_predictors_order_and_exclusion() {
        // 40 blocks; block b executes 10·(b+1) times over a 40 000-block
        // trace at LBR depth 32 (base rate 0.008·(b+1)) and precedes 100 − b
        // of the line's 100 misses, so lift falls with the block id and all
        // but the two special blocks below qualify — more than the ranking
        // keeps. Blocks 3..12 get a small CFG fan-in for the site pushes.
        let n = 40u32;
        let mut exec: Vec<u64> = (0..u64::from(n)).map(|b| 10 * (b + 1)).collect();
        let mut presence: Vec<u64> = (0..u64::from(n)).map(|b| 100 - b).collect();
        // Blocks 1 and 2 tie on lift: the lower id ranks first.
        exec[2] = exec[1];
        presence[2] = presence[1];
        // Block 3: huge lift, but in only 4% of the misses (below 5%).
        exec[3] = 1;
        presence[3] = 4;
        // Block 5: in 95% of the misses, but as common as anywhere (lift < 1.2).
        exec[5] = 1_300;
        let mut edges = HashMap::new();
        for b in 3..12u32 {
            edges.insert((b - 1, b), 5);
            edges.insert((b - 3, b), 3);
        }
        let cfg = ispy_profile::DynCfg::new(exec, vec![10.0; n as usize], &edges);
        let mut stats = LineMissStats { count: 100, ..Default::default() };
        for (b, &p) in presence.iter().enumerate() {
            stats.history_presence.insert(BlockId(b as u32), p);
        }
        let prof = Profile {
            cfg,
            misses: ispy_profile::MissProfile::new(),
            trace_len: 40_000,
            lbr_depth: 32,
        };
        let model = apps::cassandra().scaled_down(30);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 100);
        let planner = Planner::new(&program, &trace, &prof, IspyConfig::default());
        let ranked = planner.rank_predictors(&stats);
        // Strongest lift first, ties by block id, cut to RANKED_KEEP; the
        // rare block and the common block never qualify.
        let want: Vec<BlockId> =
            [0, 1, 2, 4].into_iter().chain(6..RANKED_KEEP as u32 + 2).map(BlockId).collect();
        assert_eq!(ranked, want);
        // Exclusion: the site and target never enter the pool, and the
        // truncated ranking yields exactly the full-sort pool for every
        // (site, target) pair and pool size.
        for ctx_candidates in [0, 1, 3, 6, 8, 12] {
            let cfg = IspyConfig { ctx_candidates, ..IspyConfig::default() };
            let planner = Planner::new(&program, &trace, &prof, cfg);
            for site in 0..16 {
                for target in 0..16 {
                    let (site, target) = (BlockId(site), BlockId(target));
                    let pool = planner.predictor_candidates(&ranked, site, target);
                    assert!(!pool.contains(&site) && !pool.contains(&target));
                    assert_eq!(pool, reference_pool(&planner, &stats, site, target));
                }
            }
        }
    }

    #[test]
    fn provenance_records_cover_every_op() {
        let (_, _, plan) =
            planned(apps::cassandra().scaled_down(30), 30_000, IspyConfig::default());
        // One record per emitted op, ids dense in emission order.
        assert_eq!(plan.provenance.len(), plan.injections.num_ops());
        for (i, rec) in plan.provenance.iter().enumerate() {
            assert_eq!(rec.id.index(), i);
            assert_eq!(rec.line_count() as usize, rec.lines.len());
            assert!(!rec.lines.is_empty());
        }
        // Every op's traced id resolves to a record that describes that op.
        let mut seen = vec![false; plan.provenance.len()];
        for (site, ops) in plan.injections.iter() {
            let ids = plan.injections.ids_at(site);
            assert_eq!(ids.len(), ops.len());
            for (op, id) in ops.iter().zip(ids) {
                let id = id.expect("planner-emitted ops carry provenance");
                let rec = &plan.provenance[id.index()];
                assert_eq!(rec.site, site);
                assert_eq!(rec.mnemonic, op.mnemonic());
                assert_eq!(rec.base_line, op.base_line());
                assert_eq!(rec.line_count() as usize, op.target_lines().len());
                assert_eq!(rec.is_conditional(), op.condition().is_some());
                assert!(!seen[id.index()], "duplicate provenance id");
                seen[id.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every record must be referenced by an op");
    }

    #[test]
    fn baseline_is_shareable_across_threads() {
        let model = apps::cassandra().scaled_down(30);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 15_000);
        let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        let baseline = PlannerBaseline::new();
        let serial: Vec<Plan> = [1usize, 2, 4, 8]
            .iter()
            .map(|&n| {
                Planner::new(&program, &trace, &prof, IspyConfig::default().with_ctx_size(n)).plan()
            })
            .collect();
        let parallel: Vec<Plan> = std::thread::scope(|s| {
            let handles: Vec<_> = [1usize, 2, 4, 8]
                .iter()
                .map(|&n| {
                    let (program, trace, prof, baseline) = (&program, &trace, &prof, &baseline);
                    s.spawn(move || {
                        Planner::new(program, trace, prof, IspyConfig::default().with_ctx_size(n))
                            .plan_with_baseline(baseline)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.injections, b.injections);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn equal_planning_configs_take_turns() {
        // ctx8, ctx16 and ctx32 share one planning config. Started together
        // on one baseline, exactly one of them computes each line and the
        // other two replay it, whichever thread wins — so memo hits (and the
        // work counters they skip) do not depend on the schedule.
        let model = apps::cassandra().scaled_down(30);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 15_000);
        let prof = profile(&program, &trace, &SimConfig::default(), SampleRate::EXACT);
        let cfgs: Vec<IspyConfig> =
            [8, 16, 32].iter().map(|&n| IspyConfig::conditional_only().with_ctx_size(n)).collect();
        let fresh = Planner::new(&program, &trace, &prof, cfgs[0].clone()).plan();
        let baseline = PlannerBaseline::new();
        let start = std::sync::Barrier::new(cfgs.len());
        let plans: Vec<Plan> = std::thread::scope(|s| {
            let handles: Vec<_> = cfgs
                .iter()
                .map(|cfg| {
                    let (program, trace, prof, baseline, start) =
                        (&program, &trace, &prof, &baseline, &start);
                    s.spawn(move || {
                        let planner = Planner::new(program, trace, prof, cfg.clone());
                        start.wait();
                        planner.plan_with_baseline(baseline)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        for plan in &plans {
            assert_eq!(plan.injections, fresh.injections);
            assert_eq!(plan.stats, fresh.stats);
        }
        assert_eq!(baseline.memo_hits(), 2 * fresh.stats.target_lines as u64);
    }

    #[test]
    fn deterministic_planning() {
        let model = apps::kafka().scaled_down(30);
        let (_, _, a) = planned(model.clone(), 15_000, IspyConfig::default());
        let (_, _, b) = planned(model, 15_000, IspyConfig::default());
        assert_eq!(a.injections, b.injections);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn stats_helpers() {
        let stats = PlanStats {
            contexts_adopted: 2,
            context_blocks_total: 6,
            target_lines: 10,
            covered_lines: 8,
            lines_per_op_hist: vec![5, 3, 2, 0, 0, 0, 0, 0, 0],
            ..Default::default()
        };
        assert!((stats.avg_ctx_blocks() - 3.0).abs() < 1e-12);
        assert!((stats.planned_coverage() - 0.8).abs() < 1e-12);
        // Multi-line ops: 3 two-line + 2 three-line; below 4 lines = all 5.
        assert!((stats.coalesced_fraction_below(4) - 1.0).abs() < 1e-12);
        assert!((stats.coalesced_fraction_below(3) - 0.6).abs() < 1e-12);
    }
}
