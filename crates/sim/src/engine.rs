//! The trace-replay engine: executes a block trace against the hierarchy,
//! running injected prefetch instructions with their conditional/coalesced
//! semantics, and charges cycles.
//!
//! ## Timing model
//!
//! Per block event:
//!
//! 1. The block's entry is pushed into the LBR (updating the Bloom filter).
//! 2. Injected prefetch ops at the block execute: each costs one issued
//!    instruction; conditional ops check the Bloom runtime hash; firing ops
//!    issue line requests that complete after the line's current residency
//!    latency, then fill L1I at the configured (half) priority.
//! 3. Each I-line the block spans is fetched: L1I hit = no stall; miss
//!    stalls for `lat(level) − lat(L1I)`; a line still in flight from a
//!    prefetch stalls only for the remaining time (late prefetch).
//! 4. Data accesses run against L1D/L2/L3 with a fractional stall charge
//!    (the OoO backend hides most data latency).
//! 5. Issue bandwidth: `ceil(instrs / width)` cycles.
//!
//! Absolute cycle counts are a simplification of the authors' ZSim setup;
//! the harness only interprets *relative* results (speedups, fractions of
//! ideal), which is also how the paper reports its evaluation.
//!
//! ## Hot-path structure
//!
//! The loop is organised around three observations about injected replay
//! (see DESIGN.md "Engine internals"):
//!
//! * **Injection-skip index** — most blocks carry no ops, and while nothing
//!   is in flight an op-free block cannot interact with the prefetch
//!   machinery at all. The compiled plan's per-block bitmap lets the loop
//!   batch whole runs of such blocks through a lean step that skips the
//!   completion drain, the op dispatch, and the in-flight probes.
//! * **Branch-free op execution** — [`CompiledOp`](ispy_isa::CompiledOp)s
//!   carry the condition as
//!   a raw bitmask (`bits & !runtime == 0`, `0` for unconditional ops) and
//!   the target lines pre-flattened with presence-shadow word masks, so the
//!   steady-state firing (everything already resident) is two `u64`
//!   AND-compares instead of a per-line residency walk.
//! * **Arena in-flight state** — in-flight prefetches and prefetch-line
//!   owners are dense arrays indexed by line id (code lines are small and
//!   bounded), so the steady state never hashes; only lines beyond the
//!   arena limit fall back to a hash map.

use crate::config::SimConfig;
use crate::fxhash::FxHashMap;
use crate::hierarchy::Hierarchy;
use crate::lbr::{BloomSig, Lbr};
use crate::metrics::SimResult;
use crate::outcome::OutcomeLedger;
use crate::switch::{SwitchEffect, SwitchSchedule};
use ispy_artifact::ArtifactError;
use ispy_isa::{CompiledInjections, InjectionMap, ProvenanceId};
use ispy_trace::{Addr, BlockId, BlockSource, Line, Program, Trace, TraceBlocks};
use std::sync::Arc;

/// Data lines live in a disjoint address range from code lines.
const DATA_LINE_BASE: u64 = 1 << 40;

/// Callbacks the engine raises during replay; used by the profiler.
pub trait SimObserver {
    /// A block is about to execute at `cycle` (trace position `idx`).
    fn block_entered(&mut self, idx: usize, block: BlockId, cycle: u64) {
        let _ = (idx, block, cycle);
    }

    /// A demand instruction fetch missed L1I.
    fn icache_miss(&mut self, idx: usize, block: BlockId, line: Line, cycle: u64) {
        let _ = (idx, block, line, cycle);
    }

    /// A scenario phase boundary was crossed: `phase` governs from trace
    /// position `idx` onward. Raised before the block at `idx` executes;
    /// only runs whose [`SimConfig::schedule`] carries phase entries see it.
    fn phase_boundary(&mut self, idx: usize, phase: u32, cycle: u64) {
        let _ = (idx, phase, cycle);
    }

    /// A tenant context switch occurred: `tenant` owns the core from trace
    /// position `idx` onward. Raised before the block at `idx` executes
    /// (after the switch's cache effect has been applied); only runs whose
    /// [`SimConfig::schedule`] carries switch entries see it.
    fn tenant_switch(&mut self, idx: usize, tenant: u32, cycle: u64) {
        let _ = (idx, tenant, cycle);
    }
}

/// An observer that ignores every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl SimObserver for NoopObserver {}

/// A hardware prefetcher hook (used by the next-line baselines).
pub trait HwPrefetcher {
    /// Called on every demand instruction fetch; push lines to prefetch into
    /// `out`.
    fn on_fetch(&mut self, line: Line, was_miss: bool, out: &mut Vec<Line>);
}

/// Optional attachments for a run.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Injected code-prefetch instructions (the rewritten binary).
    pub injections: Option<&'a InjectionMap>,
    /// A pre-lowered injection plan (see [`InjectionMap::compile`]). When
    /// set it takes precedence over `injections`; callers replaying the same
    /// plan across many configurations (the figure sweeps) compile once and
    /// pass it here to skip the per-run lowering.
    pub compiled: Option<&'a CompiledInjections>,
    /// A hardware prefetcher observing the fetch stream.
    pub hw_prefetcher: Option<&'a mut dyn HwPrefetcher>,
    /// An observer receiving replay events.
    pub observer: Option<&'a mut dyn SimObserver>,
    /// Collects per-injection outcome counts, bucketed by the provenance ids
    /// the injection map carries.
    pub outcomes: Option<&'a mut OutcomeLedger>,
    /// Validation knob: route every block through the full per-block step
    /// and every injected op through the plain per-op loop, disabling both
    /// the injection-skip fast path and the site-group accounting fast path.
    /// Results must be bit-identical either way (the `engine_fastpath` suite
    /// asserts it); the flag exists so that equivalence is testable from
    /// outside the crate.
    pub reference_loop: bool,
}

/// Vacant-slot sentinel in the in-flight arena. A real completion cycle can
/// never reach it (it would overflow the cycle counter first).
const EMPTY_SLOT: u64 = u64::MAX;

/// Untagged sentinel in the arena's provenance column.
const NO_TAG: u32 = u32::MAX;

/// Upper bound on arena-indexed line ids (24 MiB of dense state). Generated
/// programs stay far below this; pathological hand-built plans spill to the
/// hash-map side.
const ARENA_LINE_CAP: u64 = 1 << 21;

/// Compact the completion queue once it holds at least this many entries and
/// stale ones are the majority. Small enough to bound memory on pathological
/// traces, large enough that compaction is rare in healthy ones.
const INFLIGHT_COMPACT_MIN: usize = 64;

/// In-flight prefetch bookkeeping, slab-style: lines below `limit` (all code
/// lines, in practice) live in a dense completion array indexed by line id —
/// insert, probe, and remove are array reads with no hashing — while far-out
/// lines (hand-built plans prefetching garbage addresses) spill to a hash
/// map. Each entry remembers the provenance id of the injection that issued
/// it, so completions and late demand hits can be attributed; throughput
/// runs carry no provenance, so their arenas skip the tag array entirely —
/// halving the dense footprint the hot path's scattered probes touch.
///
/// Pending completions are kept in a handful of FIFO *lanes* instead of a
/// binary heap: a completion is `cycle + latency` with latency drawn from
/// the few hierarchy levels, so per latency the completions arrive already
/// sorted. Insert picks the lane whose tail fits (patience-sorting style —
/// lane count converges to the number of distinct latencies) and drain
/// merges the lane heads, grouping ties by completion and ordering them by
/// line id — exactly the `(completion, line)` min-heap pop order, at
/// push-back/pop-front cost.
struct InflightArena {
    limit: u64,
    /// Completion cycle per line id; [`EMPTY_SLOT`] = not in flight.
    completion: Vec<u64>,
    /// Presence bitmap over the dense slots — one bit per line id, set iff
    /// the slot is occupied. The issue path's "already in flight?" probe
    /// touches this (a few KB, cache-resident) instead of the slot array
    /// (hundreds of KB, a guaranteed scattered read per probe).
    present: Vec<u64>,
    /// Provenance tag per line id ([`NO_TAG`] = untagged), parallel to
    /// `completion` — empty in untagged arenas, which never consult it.
    tags: Vec<u32>,
    /// Lines at/above `limit`.
    far: FxHashMap<u64, (u64, Option<ProvenanceId>)>,
    /// `(completion, line)` FIFOs, nondecreasing completion within each.
    lanes: Vec<std::collections::VecDeque<(u64, u64)>>,
    /// Cached minimum completion across lane heads (`u64::MAX` when no
    /// entries are queued) — the per-block "anything ready?" probe is one
    /// compare.
    next_completion: u64,
    /// Total queued lane entries, live or stale.
    entries: usize,
    /// Same-completion scratch group reused across drains.
    scratch: Vec<(u64, u64)>,
    /// Total lines currently in flight (dense + far); the loop's "anything
    /// pending?" probe is a zero test on this.
    live: usize,
    /// Lane entries whose line is no longer (or differently) in flight.
    /// Tracked so the lanes can be rebuilt before stale entries dominate:
    /// a demand-heavy run would otherwise grow them without bound.
    stale: usize,
}

impl InflightArena {
    /// `tagged` arenas (attributed runs) keep a provenance tag per dense
    /// slot; untagged ones only track completions.
    fn new(limit: u64, tagged: bool) -> Self {
        InflightArena {
            limit,
            completion: vec![EMPTY_SLOT; limit as usize],
            present: vec![0u64; (limit as usize).div_ceil(64)],
            tags: if tagged { vec![NO_TAG; limit as usize] } else { Vec::new() },
            far: FxHashMap::default(),
            lanes: Vec::new(),
            next_completion: u64::MAX,
            entries: 0,
            scratch: Vec::new(),
            live: 0,
            stale: 0,
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn insert(&mut self, line: Line, completion: u64, tag: Option<ProvenanceId>) {
        debug_assert_ne!(completion, EMPTY_SLOT);
        debug_assert!(tag.is_none_or(|t| t.0 != NO_TAG), "provenance id collides with sentinel");
        let raw = line.raw();
        let replaced = if raw < self.limit {
            debug_assert!(
                tag.is_none() || !self.tags.is_empty(),
                "tag inserted into untagged arena"
            );
            let slot = &mut self.completion[raw as usize];
            let replaced = *slot != EMPTY_SLOT;
            *slot = completion;
            self.present[(raw >> 6) as usize] |= 1 << (raw & 63);
            if !self.tags.is_empty() {
                self.tags[raw as usize] = tag.map_or(NO_TAG, |t| t.0);
            }
            replaced
        } else {
            self.far.insert(raw, (completion, tag)).is_some()
        };
        self.enqueue(completion, raw);
        if replaced {
            // The replaced entry's lane slot became stale.
            self.note_stale();
        } else {
            self.live += 1;
        }
    }

    /// Appends to the first lane whose tail does not exceed `completion`,
    /// keeping every lane's completion order; opens a new lane otherwise.
    fn enqueue(&mut self, completion: u64, raw: u64) {
        self.next_completion = self.next_completion.min(completion);
        self.entries += 1;
        for lane in &mut self.lanes {
            if lane.back().is_none_or(|&(c, _)| c <= completion) {
                lane.push_back((completion, raw));
                return;
            }
        }
        let mut lane = std::collections::VecDeque::new();
        lane.push_back((completion, raw));
        self.lanes.push(lane);
    }

    /// Whether `line` is in flight — the issue path's probe, answered from
    /// the presence bitmap without touching the slot array.
    #[inline]
    fn contains(&self, line: Line) -> bool {
        if self.live == 0 {
            return false;
        }
        let raw = line.raw();
        if raw < self.limit {
            self.present[(raw >> 6) as usize] & (1 << (raw & 63)) != 0
        } else {
            self.far.contains_key(&raw)
        }
    }

    #[inline]
    fn get(&self, line: Line) -> Option<u64> {
        if self.live == 0 {
            return None;
        }
        let raw = line.raw();
        if raw < self.limit {
            let c = self.completion[raw as usize];
            if c == EMPTY_SLOT {
                None
            } else {
                Some(c)
            }
        } else {
            self.far.get(&raw).map(|&(c, _)| c)
        }
    }

    #[inline]
    fn tag(&self, line: Line) -> Option<ProvenanceId> {
        let raw = line.raw();
        if raw < self.limit {
            let t = if self.tags.is_empty() { NO_TAG } else { self.tags[raw as usize] };
            if t == NO_TAG {
                None
            } else {
                Some(ProvenanceId(t))
            }
        } else {
            self.far.get(&raw).and_then(|&(_, tag)| tag)
        }
    }

    /// Forgets an in-flight line (demanded before completion). The lane
    /// entry becomes stale and is skipped when drained.
    fn remove(&mut self, line: Line) {
        let raw = line.raw();
        let removed = if raw < self.limit {
            let slot = &mut self.completion[raw as usize];
            let removed = *slot != EMPTY_SLOT;
            *slot = EMPTY_SLOT;
            self.present[(raw >> 6) as usize] &= !(1 << (raw & 63));
            if !self.tags.is_empty() {
                self.tags[raw as usize] = NO_TAG;
            }
            removed
        } else {
            self.far.remove(&raw).is_some()
        };
        if removed {
            self.live -= 1;
            self.note_stale();
        }
    }

    fn note_stale(&mut self) {
        self.stale += 1;
        if self.entries >= INFLIGHT_COMPACT_MIN && self.stale * 2 > self.entries {
            self.compact();
        }
    }

    /// What's in flight for `raw`, if anything (compaction's liveness probe).
    fn lookup(&self, raw: u64) -> Option<u64> {
        if raw < self.limit {
            let c = self.completion[raw as usize];
            if c == EMPTY_SLOT {
                None
            } else {
                Some(c)
            }
        } else {
            self.far.get(&raw).map(|&(c, _)| c)
        }
    }

    /// Drops stale lane entries. Retaining in place preserves each lane's
    /// completion order, so drain order is unchanged. O(entries) — never
    /// scans the dense slot array.
    fn compact(&mut self) {
        let mut lanes = std::mem::take(&mut self.lanes);
        for lane in &mut lanes {
            lane.retain(|&(completion, raw)| self.lookup(raw) == Some(completion));
        }
        lanes.retain(|lane| !lane.is_empty());
        self.lanes = lanes;
        self.entries = self.lanes.iter().map(|l| l.len()).sum();
        self.stale = 0;
        self.refresh_next();
    }

    /// Recomputes the cached minimum completion from the lane heads.
    fn refresh_next(&mut self) {
        self.next_completion =
            self.lanes.iter().filter_map(|l| l.front().map(|&(c, _)| c)).min().unwrap_or(u64::MAX);
    }

    /// Pops lines whose prefetch has completed by `now`, in `(completion,
    /// line)` order.
    fn drain_completed(&mut self, now: u64, mut f: impl FnMut(Line, Option<ProvenanceId>)) {
        if self.next_completion > now {
            return;
        }
        let mut group = std::mem::take(&mut self.scratch);
        loop {
            // The earliest pending completion across lane heads.
            let c = match self.lanes.iter().filter_map(|l| l.front().map(|&(c, _)| c)).min() {
                Some(c) if c <= now => c,
                _ => break,
            };
            // Gather the whole completion-tie group (each lane's head run)
            // and order it by line id — the heap's pop order for ties.
            group.clear();
            for lane in &mut self.lanes {
                while lane.front().is_some_and(|&(comp, _)| comp == c) {
                    group.push(lane.pop_front().expect("head just probed"));
                }
            }
            self.entries -= group.len();
            group.sort_unstable();
            for &(completion, raw) in &group {
                // Skip stale entries (line demanded or re-issued meanwhile).
                let fired = if raw < self.limit {
                    let slot = &mut self.completion[raw as usize];
                    if *slot == completion {
                        *slot = EMPTY_SLOT;
                        self.present[(raw >> 6) as usize] &= !(1 << (raw & 63));
                        let t = if self.tags.is_empty() {
                            NO_TAG
                        } else {
                            std::mem::replace(&mut self.tags[raw as usize], NO_TAG)
                        };
                        self.live -= 1;
                        Some(if t == NO_TAG { None } else { Some(ProvenanceId(t)) })
                    } else {
                        None
                    }
                } else {
                    match self.far.get(&raw) {
                        Some(&(stored, tag)) if stored == completion => {
                            self.far.remove(&raw);
                            self.live -= 1;
                            Some(tag)
                        }
                        _ => None,
                    }
                };
                match fired {
                    Some(tag) => f(Line::new(raw), tag),
                    None => self.stale = self.stale.saturating_sub(1),
                }
            }
        }
        self.scratch = group;
        self.refresh_next();
    }
}

/// Owner map from filled-but-untouched prefetch lines to the injection that
/// fetched them, arena-indexed like [`InflightArena`]. Stays empty (and
/// zero-sized) when no ledger is attached.
struct OwnerArena {
    limit: u64,
    dense: Vec<u32>,
    far: FxHashMap<u64, ProvenanceId>,
    live: usize,
}

impl OwnerArena {
    fn new(limit: u64) -> Self {
        OwnerArena {
            limit,
            dense: vec![NO_TAG; limit as usize],
            far: FxHashMap::default(),
            live: 0,
        }
    }

    fn insert(&mut self, line: Line, id: ProvenanceId) {
        debug_assert_ne!(id.0, NO_TAG, "provenance id collides with sentinel");
        let raw = line.raw();
        let replaced = if raw < self.limit {
            std::mem::replace(&mut self.dense[raw as usize], id.0) != NO_TAG
        } else {
            self.far.insert(raw, id).is_some()
        };
        if !replaced {
            self.live += 1;
        }
    }

    fn take(&mut self, line: Line) -> Option<ProvenanceId> {
        if self.live == 0 {
            return None;
        }
        let raw = line.raw();
        let owner = if raw < self.limit {
            let t = std::mem::replace(&mut self.dense[raw as usize], NO_TAG);
            if t == NO_TAG {
                None
            } else {
                Some(ProvenanceId(t))
            }
        } else {
            self.far.remove(&raw)
        };
        if owner.is_some() {
            self.live -= 1;
        }
        owner
    }
}

/// Attribution state threaded through a run: the ledger (if requested) and
/// the owner arena for filled-but-untouched prefetch lines. Both stay inert
/// when no ledger is attached.
struct Attribution<'a> {
    ledger: Option<&'a mut OutcomeLedger>,
    owner: OwnerArena,
}

impl Attribution<'_> {
    fn enabled(&self) -> bool {
        self.ledger.is_some()
    }

    /// Records one event against `id`'s bucket (no-op without a ledger).
    #[inline]
    fn note(
        &mut self,
        id: Option<ProvenanceId>,
        f: impl FnOnce(&mut crate::outcome::InjectionOutcome),
    ) {
        if let Some(ledger) = self.ledger.as_deref_mut() {
            f(ledger.outcome_mut(id));
        }
    }

    /// A prefetch of `line` issued by `tag` completed and filled L1I.
    fn filled(&mut self, line: Line, tag: Option<ProvenanceId>) {
        if self.enabled() {
            if let Some(id) = tag {
                self.owner.insert(line, id);
            }
        }
    }

    /// The untouched prefetch of `line` reached its end state (demanded or
    /// evicted); returns and forgets its owner.
    #[inline]
    fn settle(&mut self, line: Line) -> Option<ProvenanceId> {
        self.owner.take(line)
    }
}

/// `words` sentinel in [`HotOp`]: take the per-line path instead of the
/// shadow-batch compare.
const NO_BATCH: u32 = u32::MAX;

/// Run-specialized lowered op, rebuilt per engine from
/// [`CompiledOp`](ispy_isa::CompiledOp)s once the run's shadow limit is
/// known: exactly 32 bytes (two ops per cache line, half a
/// [`CompiledOp`](ispy_isa::CompiledOp)), with the batchability decision
/// pre-folded
/// into the `words` sentinel so the steady-state execution reads nothing
/// else. Line counts come back out of the masks by popcount; provenance ids
/// and flattened line lists stay in the compiled plan, which only the cold
/// paths consult.
#[derive(Clone, Copy)]
struct HotOp {
    /// Condition mask: fires iff `ctx_bits & !runtime_hash == 0`.
    ctx_bits: u64,
    /// Presence-shadow masks, index-aligned with `words`.
    masks: [u64; 2],
    /// Presence-shadow word indices, or `[NO_BATCH; 2]` when this op cannot
    /// take the batch compare under this run's shadow limit.
    words: [u32; 2],
}

fn hot_ops(injections: &CompiledInjections, shadow_limit: u64) -> Vec<HotOp> {
    injections
        .compiled_ops()
        .iter()
        .map(|cop| {
            let batch = cop.shadow_batchable && cop.max_line < shadow_limit;
            if batch {
                debug_assert_eq!(
                    u64::from(cop.shadow_masks[0].count_ones() + cop.shadow_masks[1].count_ones()),
                    cop.num_lines(),
                    "shadow masks must cover each target line exactly once"
                );
            }
            HotOp {
                ctx_bits: cop.ctx_bits,
                masks: cop.shadow_masks,
                words: if batch { cop.shadow_words } else { [NO_BATCH; 2] },
            }
        })
        .collect()
}

/// `site_groups` start sentinel in [`BlockMeta`]: the site fast check does
/// not apply at this block (not every op shadow-batchable).
const SITE_NO_FAST: u32 = u32::MAX;

/// One condition-group of a site's ops: every op at the site sharing one
/// condition mask, with their shadow cover pairs merged. Grouping matters
/// because a block's ops either all see the same runtime hash — so ops with
/// equal masks fire or suppress *together* — and without a ledger only the
/// totals are observable, letting the engine account a whole group in one
/// compare instead of walking its ops.
///
/// A site with more than one group additionally stores a *union summary* as
/// its first entry: the OR of the groups' condition masks, their combined
/// op/line totals, and their merged cover pairs. The union mask passing the
/// subset test implies every group's mask passes (each is a subset of the
/// OR), and the union cover being shadow-resident implies every group's
/// cover is, so the steady state — all groups fire, every target line
/// resident — settles the whole site in one compare without visiting the
/// per-group entries at all. A single-group site's one entry *is* its union.
#[derive(Clone, Copy)]
struct SiteGroup {
    /// The group's shared condition mask.
    ctx: u64,
    /// Op count in the group.
    n: u32,
    /// Sum of the ops' target-line counts.
    lines: u32,
    /// Range into the engine's flat merged `(word, mask)` pair store.
    pairs: (u32, u32),
    /// Range into the engine's flat per-group op-index store, so a group
    /// that does need issuing walks only its own ops. Issue order across
    /// groups then differs from op order, which is unobservable without a
    /// ledger: the hierarchy is read-only during op execution, completed
    /// prefetches drain in `(completion, line)` order regardless of
    /// insertion order, and a line targeted twice in one block issues once
    /// and counts once resident under any ordering.
    ops: (u32, u32),
}

/// Per-block facts the replay loop consults on every event, precomputed once
/// per run so the hot loop never re-derives line spans from byte addresses
/// or re-hashes block addresses into Bloom positions.
///
/// The site fast-path aggregates ride along in the same struct — the meta is
/// the one scattered per-block load the loop already pays, so folding a whole
/// site's op list into it makes the steady-state check (all ops fire, every
/// target line shadow-resident) free of further table lookups: when every op
/// at the site is batchable, the union of their condition bits passes, and
/// the union of their shadow masks is covered, the per-op loop's outcome is
/// fully determined without walking the ops.
#[derive(Clone, Copy)]
struct BlockMeta {
    start: Addr,
    first_line: u64,
    last_line: u64,
    instrs: u64,
    data_accesses: u32,
    /// The block address's Bloom signature under the run's hash config.
    sig: BloomSig,
    /// Range into the engine's flat [`SiteGroup`] store, or
    /// `(SITE_NO_FAST, _)` when the fast check is disabled at this site.
    site_groups: (u32, u32),
}

/// The flat site tables [`block_metas`] builds alongside the metas: the
/// [`SiteGroup`] store, its cover-pair pool, and its member-op pool.
type SiteTables = (Vec<BlockMeta>, Vec<SiteGroup>, Vec<(u32, u64)>, Vec<u32>);

/// Per-site scratch accumulator for one distinct ctx mask: the mask, op and
/// line counts, merged `(word, mask)` cover pairs, and member op indices.
type GroupAcc = (u64, u32, u32, Vec<(u32, u64)>, Vec<u32>);

fn block_metas(
    program: &Program,
    lbr: &Lbr,
    injections: &CompiledInjections,
    hot_ops: &[HotOp],
) -> SiteTables {
    let mut groups: Vec<SiteGroup> = Vec::new();
    let mut pairs: Vec<(u32, u64)> = Vec::new();
    let mut group_ops: Vec<u32> = Vec::new();
    let mut acc: Vec<GroupAcc> = Vec::new();
    let metas = program
        .blocks()
        .iter()
        .enumerate()
        .map(|(site, b)| {
            let first_line = b.first_line().raw();
            let mut meta = BlockMeta {
                start: b.start(),
                first_line,
                last_line: first_line + b.line_count() - 1,
                instrs: u64::from(b.instrs()),
                data_accesses: u32::from(b.data_accesses()),
                sig: lbr.sig_of(b.start()),
                site_groups: (SITE_NO_FAST, 0),
            };
            let range = injections.site_range(BlockId(site as u32));
            if range.is_empty() {
                meta.site_groups = (0, 0); // no ops: trivially fast (never consulted)
                return meta;
            }
            let mut used = 0usize;
            for (i, op) in hot_ops[range.clone()].iter().enumerate() {
                if op.words[1] == NO_BATCH {
                    return meta; // fast check disabled at this site
                }
                let slot = match acc[..used].iter().position(|a| a.0 == op.ctx_bits) {
                    Some(i) => i,
                    None => {
                        if used == acc.len() {
                            acc.push((0, 0, 0, Vec::new(), Vec::new()));
                        }
                        let a = &mut acc[used];
                        a.0 = op.ctx_bits;
                        a.1 = 0;
                        a.2 = 0;
                        a.3.clear();
                        a.4.clear();
                        used += 1;
                        used - 1
                    }
                };
                let a = &mut acc[slot];
                a.1 += 1;
                a.2 += op.masks[0].count_ones() + op.masks[1].count_ones();
                a.4.push((range.start + i) as u32);
                for k in 0..2 {
                    if op.masks[k] == 0 {
                        continue;
                    }
                    match a.3.iter_mut().find(|(w, _)| *w == op.words[k]) {
                        Some((_, m)) => *m |= op.masks[k],
                        None => a.3.push((op.words[k], op.masks[k])),
                    }
                }
            }
            let gstart = groups.len() as u32;
            if used > 1 {
                // Union summary entry: OR of masks, merged pairs, totals.
                let mut union: Vec<(u32, u64)> = Vec::new();
                let (mut ctx, mut n, mut lines) = (0u64, 0u32, 0u32);
                for a in &acc[..used] {
                    ctx |= a.0;
                    n += a.1;
                    lines += a.2;
                    for &(w, m) in &a.3 {
                        match union.iter_mut().find(|(uw, _)| *uw == w) {
                            Some((_, um)) => *um |= m,
                            None => union.push((w, m)),
                        }
                    }
                }
                let pstart = pairs.len() as u32;
                pairs.extend_from_slice(&union);
                groups.push(SiteGroup {
                    ctx,
                    n,
                    lines,
                    pairs: (pstart, pairs.len() as u32),
                    ops: (0, 0), // never walked: issuing falls to the groups
                });
            }
            for a in &acc[..used] {
                let pstart = pairs.len() as u32;
                pairs.extend_from_slice(&a.3);
                let ostart = group_ops.len() as u32;
                group_ops.extend_from_slice(&a.4);
                groups.push(SiteGroup {
                    ctx: a.0,
                    n: a.1,
                    lines: a.2,
                    pairs: (pstart, pairs.len() as u32),
                    ops: (ostart, group_ops.len() as u32),
                });
            }
            meta.site_groups = (gstart, groups.len() as u32);
            meta
        })
        .collect();
    (metas, groups, pairs, group_ops)
}

/// The whole simulated machine plus replay bookkeeping, packaged so the
/// loop can be driven over arbitrary trace windows — [`run_streaming`]
/// replays a source chunk by chunk; the sharded replay
/// ([`simulate_sharded_source`](crate::shard::simulate_sharded_source))
/// replays a warmup slice, snapshots, then replays its window.
pub(crate) struct Engine<'o> {
    hier: Hierarchy,
    lbr: Lbr,
    inflight: InflightArena,
    attr: Attribution<'o>,
    m: SimResult,
    cycle: u64,
    hw_out: Vec<Line>,
    data_lines: u64,
    /// `data_lines − 1` when the data footprint is a power of two (every
    /// bundled app model), letting the data side reduce addresses with an
    /// AND instead of two 64-bit divisions per access; `0` disables it.
    data_mask: u64,
    stream_counter: u64,
    stream_threshold: u64,
    issue_width: u64,
    d_stall_factor: f64,
    ideal_icache: bool,
    metas: Vec<BlockMeta>,
    hot_ops: Vec<HotOp>,
    /// Flat storage for every site's condition groups, indexed by the
    /// `site_groups` range in its [`BlockMeta`].
    site_groups: Vec<SiteGroup>,
    /// Flat storage for the groups' merged `(shadow word, mask)` cover pairs.
    site_pairs: Vec<(u32, u64)>,
    /// Flat storage for the groups' member op indices into the hot-op table.
    site_group_ops: Vec<u32>,
    /// The installed compiled plan. Shared (not borrowed) so a run can
    /// install a *new* plan mid-replay ([`Engine::swap_plan`]) while callers
    /// of the old one keep their handle; static runs wrap their plan once at
    /// the entry point.
    injections: Arc<CompiledInjections>,
    observer: Option<&'o mut dyn SimObserver>,
    hw: Option<&'o mut dyn HwPrefetcher>,
    /// Whether injection-free runs may take the lean step: no observer (it
    /// expects per-block callbacks), no hardware prefetcher (it watches
    /// every fetch), and the validation knob not set.
    fast_ok: bool,
    /// The run's tenant-switch/phase schedule, if any.
    sched: Option<Arc<SwitchSchedule>>,
    /// Cursor into the schedule's switch list: next entry to fire.
    next_switch: usize,
    /// Cursor into the schedule's phase list: next entry to fire.
    next_phase: usize,
    /// Event index of the earliest pending boundary (`u64::MAX` when none
    /// remain, which is also the scheduleless steady state — so the hot
    /// loop's boundary test is one always-false compare).
    next_boundary: u64,
}

impl<'o> Engine<'o> {
    /// `force_arena` sizes the in-flight/owner arenas even when the initial
    /// plan is empty — adaptive runs start plan-less but hot-swap real plans
    /// in later, and the arena limits are fixed at construction (an
    /// undersized arena is still *correct*: lines spill to the hash-map
    /// side, just slower).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        program: &Program,
        cfg: &SimConfig,
        injections: Arc<CompiledInjections>,
        observer: Option<&'o mut dyn SimObserver>,
        hw: Option<&'o mut dyn HwPrefetcher>,
        ledger: Option<&'o mut OutcomeLedger>,
        reference_loop: bool,
        force_arena: bool,
    ) -> Self {
        let mut hier = Hierarchy::new(cfg);
        let lbr = Lbr::new(cfg.lbr_depth, cfg.hash);
        // Shadow the code-line range (plus slack for next-line prefetchers
        // past the last block); prefetches of lines beyond it use the scan
        // path.
        let max_code_line = program
            .blocks()
            .iter()
            .map(|b| b.first_line().raw() + b.line_count() - 1)
            .max()
            .unwrap_or(0);
        hier.enable_l1i_shadow(max_code_line + 65);
        hier.enable_data_shadow(DATA_LINE_BASE, program.data_footprint_lines());
        // Prefetches only exist with an injection plan or a hardware
        // prefetcher; plain baseline runs skip the arena allocations.
        let want_arena = force_arena || !injections.is_empty() || hw.is_some();
        let arena_limit = if want_arena { (max_code_line + 65).min(ARENA_LINE_CAP) } else { 0 };
        let owner_limit = if want_arena && ledger.is_some() { arena_limit } else { 0 };
        let tagged = ledger.is_some();
        let fast_ok = !reference_loop && observer.is_none() && hw.is_none();
        let hot_ops = hot_ops(&injections, hier.l1i_shadow_limit());
        let (metas, site_groups, site_pairs, site_group_ops) =
            block_metas(program, &lbr, &injections, &hot_ops);
        let data_lines = program.data_footprint_lines();
        Engine {
            hier,
            lbr,
            inflight: InflightArena::new(arena_limit, tagged),
            attr: Attribution { ledger, owner: OwnerArena::new(owner_limit) },
            m: SimResult::default(),
            cycle: 0,
            hw_out: Vec::new(),
            data_lines,
            data_mask: if data_lines.is_power_of_two() { data_lines - 1 } else { 0 },
            stream_counter: 0,
            stream_threshold: (cfg.d_stream_frac * 100.0) as u64,
            issue_width: u64::from(cfg.issue_width),
            d_stall_factor: cfg.d_stall_factor,
            ideal_icache: cfg.ideal_icache,
            metas,
            hot_ops,
            site_groups,
            site_pairs,
            site_group_ops,
            injections,
            observer,
            hw,
            fast_ok,
            sched: cfg.schedule.clone(),
            next_switch: 0,
            next_phase: 0,
            next_boundary: u64::MAX,
        }
    }

    /// Replays a window of trace blocks; `idx0` is the window's position in
    /// the full trace (observer callbacks report absolute indices).
    pub(crate) fn replay(&mut self, blocks: &[BlockId], idx0: usize) {
        if self.sched.is_some() {
            self.sync_boundaries(idx0);
        }
        let n = blocks.len();
        let mut i = 0;
        while i < n {
            if self.fast_ok
                && self.inflight.is_empty()
                && !self.injections.has_ops(blocks[i])
                && ((idx0 + i) as u64) < self.next_boundary
            {
                // A run of injection-free blocks with nothing in flight:
                // nothing can complete, fire, or be probed, so batch the
                // whole span through the lean step. The skip index keeps
                // this scan one bit test per block. The span is capped at
                // the next schedule boundary, whose block takes the full
                // step (where the boundary fires).
                let lim = (self.next_boundary - idx0 as u64).min(n as u64) as usize;
                let mut j = i + 1;
                while j < lim && !self.injections.has_ops(blocks[j]) {
                    j += 1;
                }
                for &b in &blocks[i..j] {
                    self.step_lean(b);
                }
                i = j;
            } else {
                self.step_full(idx0 + i, blocks[i]);
                i += 1;
            }
        }
    }

    /// Positions the schedule cursors for a replay window starting at trace
    /// position `idx0`: entries strictly before `idx0` are skipped (a
    /// sharded window does not re-apply boundaries from before its warmup,
    /// mirroring how warmup itself approximates earlier history), entries at
    /// or after it are pending. Idempotent across the contiguous replay
    /// calls of a streamed run.
    fn sync_boundaries(&mut self, idx0: usize) {
        let sched = self.sched.as_ref().expect("caller checked sched presence");
        let e = idx0 as u64;
        self.next_switch = sched.switches().partition_point(|&(at, _)| at < e);
        self.next_phase = sched.phases().partition_point(|&(at, _)| at < e);
        self.next_boundary = Self::pending_boundary(sched, self.next_switch, self.next_phase);
    }

    /// The earliest event index with an unfired schedule entry.
    fn pending_boundary(sched: &SwitchSchedule, next_switch: usize, next_phase: usize) -> u64 {
        let s = sched.switches().get(next_switch).map_or(u64::MAX, |&(at, _)| at);
        let p = sched.phases().get(next_phase).map_or(u64::MAX, |&(at, _)| at);
        s.min(p)
    }

    /// Fires every schedule boundary at or before trace position `idx`:
    /// phase transitions notify the observer; tenant switches apply the
    /// schedule's cache effect, then notify. Cold — runs once per boundary,
    /// not per block.
    #[cold]
    fn cross_boundary(&mut self, idx: usize) {
        let Some(sched) = self.sched.clone() else {
            return;
        };
        let e = idx as u64;
        while self.next_phase < sched.phases().len() && sched.phases()[self.next_phase].0 <= e {
            let phase = sched.phases()[self.next_phase].1;
            self.next_phase += 1;
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.phase_boundary(idx, phase, self.cycle);
            }
        }
        while self.next_switch < sched.switches().len() && sched.switches()[self.next_switch].0 <= e
        {
            let tenant = sched.switches()[self.next_switch].1;
            self.next_switch += 1;
            self.apply_switch_effect(sched.effect());
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.tenant_switch(idx, tenant, self.cycle);
            }
        }
        self.next_boundary = Self::pending_boundary(&sched, self.next_switch, self.next_phase);
    }

    /// Applies a context switch's cache perturbation. Untouched prefetches
    /// evicted from L1I are accounted exactly like capacity evictions: the
    /// prefetch was wasted, and its injection (if attributed) is charged.
    /// In-flight prefetches deliberately survive — they were already issued
    /// to the memory system and complete regardless of who owns the core.
    fn apply_switch_effect(&mut self, effect: SwitchEffect) {
        let Some((l1i_pct, l2_pct)) = effect.fractions() else {
            return;
        };
        let Self { hier, m, attr, .. } = self;
        hier.context_switch(l1i_pct, l2_pct, |line, untouched| {
            if untouched {
                m.pf_evicted_unused += 1;
                let owner = attr.settle(line);
                attr.note(owner, |o| o.evicted_unused += 1);
            }
        });
    }

    /// The counters so far, with the running cycle count folded in — what
    /// [`run`] returns at the end, and what the sharded replay snapshots
    /// around its warmup.
    pub(crate) fn result_so_far(&self) -> SimResult {
        let mut m = self.m;
        m.cycles = self.cycle;
        m
    }

    /// A copy of the attached ledger's current state (None when detached).
    pub(crate) fn ledger_snapshot(&self) -> Option<OutcomeLedger> {
        self.attr.ledger.as_deref().cloned()
    }

    /// Installs a new compiled plan at a deterministic barrier: the swap
    /// happens *between* [`Engine::replay`] calls, so it takes effect at the
    /// next block boundary and the result depends only on the block index at
    /// which it happened — never on wall-clock timing or chunking (replaying
    /// `[a..b]` then `[b..c]` around a swap equals any other chunking with
    /// the swap at `b`).
    ///
    /// All per-plan derived state (the hot-op table, the per-block metas
    /// with their site fast-path aggregates) is rebuilt from the new plan;
    /// everything microarchitectural (caches, LBR, cycle count, in-flight
    /// prefetches) carries over untouched. In particular, prefetches issued
    /// under the *old* plan stay in flight and complete, attribute, and
    /// drain under their old provenance ids — callers that swap between
    /// attributed plans rebase the new plan's ids into a fresh range first
    /// (see [`CompiledInjections::rebase_provenance`]) so the generations'
    /// ledger rows never collide.
    pub(crate) fn swap_plan(&mut self, program: &Program, injections: Arc<CompiledInjections>) {
        self.hot_ops = hot_ops(&injections, self.hier.l1i_shadow_limit());
        let (metas, site_groups, site_pairs, site_group_ops) =
            block_metas(program, &self.lbr, &injections, &self.hot_ops);
        self.metas = metas;
        self.site_groups = site_groups;
        self.site_pairs = site_pairs;
        self.site_group_ops = site_group_ops;
        self.injections = injections;
    }

    /// One block event through the lean path. Caller guarantees: no ops at
    /// the block, nothing in flight, no observer, no hardware prefetcher.
    /// Under those facts this is step-for-step identical to
    /// [`Engine::step_full`] — the drain has nothing to drain, the op loop
    /// nothing to execute, and the in-flight probes nothing to find.
    fn step_lean(&mut self, block_id: BlockId) {
        let meta = self.metas[block_id.index()];
        self.m.blocks += 1;
        self.lbr.push_sig(meta.start, meta.sig);
        if self.ideal_icache {
            self.m.i_accesses += meta.last_line - meta.first_line + 1;
        } else {
            for raw in meta.first_line..=meta.last_line {
                let line = Line::new(raw);
                self.m.i_accesses += 1;
                if let Some(was_untouched) = self.hier.fetch_instr_hit(line) {
                    if was_untouched {
                        self.m.pf_useful += 1;
                        let owner = self.attr.settle(line);
                        self.attr.note(owner, |o| o.useful += 1);
                    }
                } else {
                    self.m.i_misses += 1;
                    let out = self.hier.fetch_instr_miss(line);
                    if let Some(evicted) = out.evicted_untouched {
                        self.m.pf_evicted_unused += 1;
                        let owner = self.attr.settle(evicted);
                        self.attr.note(owner, |o| o.evicted_unused += 1);
                    }
                    let stall = u64::from(out.extra_cycles);
                    self.m.i_stall_cycles += stall;
                    self.cycle += stall;
                }
            }
        }
        self.data_side(block_id, &meta);
        self.m.base_instrs += meta.instrs;
        self.m.instrs += meta.instrs;
        self.cycle += meta.instrs.div_ceil(self.issue_width);
    }

    /// One block event through the full path.
    fn step_full(&mut self, idx: usize, block_id: BlockId) {
        if idx as u64 >= self.next_boundary {
            self.cross_boundary(idx);
        }
        let meta = self.metas[block_id.index()];
        self.m.blocks += 1;

        if let Some(obs) = self.observer.as_deref_mut() {
            obs.block_entered(idx, block_id, self.cycle);
        }

        // 1. Retire the branch into this block.
        self.lbr.push_sig(meta.start, meta.sig);

        // 2. Drain prefetches that completed before this block.
        self.drain_completed();

        // 3. Execute injected prefetch ops.
        let ops_issued = self.exec_ops(block_id, &meta);

        // 4. Fetch the block's instruction lines.
        if self.ideal_icache {
            self.m.i_accesses += meta.last_line - meta.first_line + 1;
        } else {
            for raw in meta.first_line..=meta.last_line {
                let line = Line::new(raw);
                self.m.i_accesses += 1;
                // Fast path: one L1I set scan resolves residency, promotes
                // the line, and reports whether it was an untouched prefetch.
                if let Some(was_untouched) = self.hier.fetch_instr_hit(line) {
                    if was_untouched {
                        self.m.pf_useful += 1;
                        let owner = self.attr.settle(line);
                        self.attr.note(owner, |o| o.useful += 1);
                    }
                    self.hw_hook(line, false);
                    continue;
                }
                // Miss path.
                self.m.i_misses += 1;
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.icache_miss(idx, block_id, line, self.cycle);
                }
                let stall = if let Some(completion) = self.inflight.get(line) {
                    // Late prefetch: wait only the remaining time.
                    let tag = self.inflight.tag(line);
                    self.inflight.remove(line);
                    self.m.pf_late += 1;
                    self.m.pf_useful += 1;
                    self.attr.note(tag, |o| {
                        o.late += 1;
                        o.useful += 1;
                    });
                    let remaining = completion.saturating_sub(self.cycle);
                    self.hier.fetch_instr_miss(line); // state update; timing overridden
                    remaining
                } else {
                    let out = self.hier.fetch_instr_miss(line);
                    if let Some(evicted) = out.evicted_untouched {
                        self.m.pf_evicted_unused += 1;
                        let owner = self.attr.settle(evicted);
                        self.attr.note(owner, |o| o.evicted_unused += 1);
                    }
                    u64::from(out.extra_cycles)
                };
                self.m.i_stall_cycles += stall;
                self.cycle += stall;
                self.hw_hook(line, true);
            }
        }

        // 5. Data side.
        self.data_side(block_id, &meta);

        // 6. Issue bandwidth.
        self.m.base_instrs += meta.instrs;
        self.m.instrs += meta.instrs + ops_issued;
        self.cycle += (meta.instrs + ops_issued).div_ceil(self.issue_width);
    }

    /// Drains prefetches that completed by the current cycle into L1I.
    fn drain_completed(&mut self) {
        let Self { inflight, hier, m, attr, cycle, .. } = self;
        inflight.drain_completed(*cycle, |line, tag| {
            attr.filled(line, tag);
            if let Some(evicted) = hier.prefetch_fill(line) {
                m.pf_evicted_unused += 1;
                let owner = attr.settle(evicted);
                attr.note(owner, |o| o.evicted_unused += 1);
            }
        });
    }

    /// Executes the compiled ops at `block_id`; returns how many there were.
    fn exec_ops(&mut self, block_id: BlockId, meta: &BlockMeta) -> u64 {
        let range = self.injections.site_range(block_id);
        if range.is_empty() {
            return 0;
        }
        let n = range.len() as u64;
        // Monomorphize the op loop on ledger presence: the throughput
        // configuration never touches provenance ids or outcome buckets.
        if self.attr.enabled() {
            self.exec_op_range::<true>(range);
        } else if !self.fast_ok {
            // Reference loop (or observer/hw run): keep the plain per-op
            // walk so `reference_loop: true` really is the unoptimized
            // baseline the fast-path equivalence suite compares against.
            self.exec_op_range::<false>(range);
        } else {
            // Site fast path: walk the site's condition groups instead of
            // its ops. Each group fires or suppresses wholesale (its ops
            // share one mask), a firing group whose merged cover pairs are
            // all shadow-resident issues nothing and accounts in one
            // compare, and only a firing group with at least one line to
            // issue walks its own ops. Issue order across groups differs
            // from op order, which is unobservable here (see
            // [`SiteGroup::ops`]); the ledger path keeps the per-op loop —
            // it attributes per op.
            let (gs, ge) = meta.site_groups;
            if gs == SITE_NO_FAST {
                self.exec_op_range::<false>(range);
                return n;
            }
            self.m.pf_ops_executed += n;
            let not_runtime = !self.lbr.runtime_hash();
            // Steady-state check against the site's union entry: all groups
            // fire and every target line is shadow-resident — one compare
            // plus a couple of word tests settles the whole site.
            let u = self.site_groups[gs as usize];
            let single = ge == gs + 1;
            if u.ctx & not_runtime == 0 {
                let (s, e) = u.pairs;
                if self.site_pairs[s as usize..e as usize]
                    .iter()
                    .all(|&(w, m)| self.hier.l1i_shadow_word(w) & m == m)
                {
                    self.m.pf_ops_fired += u64::from(u.n);
                    self.m.pf_lines_resident += u64::from(u.lines);
                    return n;
                }
            } else if single {
                self.m.pf_ops_suppressed += u64::from(u.n);
                return n;
            }
            // Mixed outcome: walk the per-group entries (for a single-group
            // site that *is* the union entry).
            let (mut fired, mut suppressed, mut resident) = (0u64, 0u64, 0u64);
            for gi in if single { gs } else { gs + 1 }..ge {
                let g = self.site_groups[gi as usize];
                if g.ctx & not_runtime != 0 {
                    suppressed += u64::from(g.n);
                    continue;
                }
                fired += u64::from(g.n);
                let (s, e) = g.pairs;
                if self.site_pairs[s as usize..e as usize]
                    .iter()
                    .all(|&(w, m)| self.hier.l1i_shadow_word(w) & m == m)
                {
                    resident += u64::from(g.lines);
                    continue;
                }
                let (os, oe) = g.ops;
                for k in os..oe {
                    let i = self.site_group_ops[k as usize] as usize;
                    let op = self.hot_ops[i];
                    if self.hier.l1i_shadow_covers(op.words, op.masks) {
                        resident += u64::from(op.masks[0].count_ones() + op.masks[1].count_ones());
                    } else {
                        let inj = Arc::clone(&self.injections);
                        for &line in inj.op_lines(&inj.compiled_ops()[i]) {
                            self.issue_prefetch(line, None);
                        }
                    }
                }
            }
            self.m.pf_ops_fired += fired;
            self.m.pf_ops_suppressed += suppressed;
            self.m.pf_lines_resident += resident;
        }
        n
    }

    /// The op-execution loop over one site's range of the hot-op table.
    fn exec_op_range<const LEDGER: bool>(&mut self, range: std::ops::Range<usize>) {
        self.m.pf_ops_executed += range.len() as u64;
        let not_runtime = !self.lbr.runtime_hash();
        // One shared-handle bump per call so the op loop can read the plan
        // while `issue_prefetch` mutates the rest of the engine.
        let inj = Arc::clone(&self.injections);
        let (mut fired, mut suppressed, mut resident) = (0u64, 0u64, 0u64);
        for i in range {
            let op = self.hot_ops[i];
            let id = if LEDGER { inj.compiled_ops()[i].id } else { None };
            if LEDGER {
                self.attr.note(id, |o| o.executed += 1);
            }
            // Branch-free condition: unconditional ops lowered to 0 pass
            // trivially; conditional ops pass iff their context bits are a
            // subset of the runtime hash.
            if op.ctx_bits & not_runtime == 0 {
                fired += 1;
                if LEDGER {
                    self.attr.note(id, |o| o.fired += 1);
                }
                if op.words[1] != NO_BATCH && self.hier.l1i_shadow_covers(op.words, op.masks) {
                    // Every target line already resident — the steady state.
                    // Identical accounting to issuing each line and taking
                    // the resident early-out, without the per-line walk.
                    let lines = u64::from(op.masks[0].count_ones() + op.masks[1].count_ones());
                    resident += lines;
                    if LEDGER {
                        self.attr.note(id, |o| o.lines_resident += lines);
                    }
                } else {
                    for &line in inj.op_lines(&inj.compiled_ops()[i]) {
                        self.issue_prefetch(line, id);
                    }
                }
            } else {
                suppressed += 1;
                if LEDGER {
                    self.attr.note(id, |o| o.suppressed += 1);
                }
            }
        }
        self.m.pf_ops_fired += fired;
        self.m.pf_ops_suppressed += suppressed;
        self.m.pf_lines_resident += resident;
    }

    /// Issues one prefetch line request on behalf of injection `tag`.
    #[inline]
    fn issue_prefetch(&mut self, line: Line, tag: Option<ProvenanceId>) {
        if self.hier.in_l1i(line) || self.inflight.contains(line) {
            self.m.pf_lines_resident += 1;
            self.attr.note(tag, |o| o.lines_resident += 1);
            return;
        }
        let latency = self.hier.prefetch_latency_missing_l1i(line);
        self.inflight.insert(line, self.cycle + u64::from(latency), tag);
        self.m.pf_lines_issued += 1;
        self.attr.note(tag, |o| o.lines_issued += 1);
    }

    /// Invokes the hardware prefetcher, if any, and issues its requests
    /// (never attributed to a planned injection — they carry no provenance).
    fn hw_hook(&mut self, line: Line, was_miss: bool) {
        if let Some(hw) = self.hw.as_deref_mut() {
            hw.on_fetch(line, was_miss, &mut self.hw_out);
        }
        if !self.hw_out.is_empty() {
            let mut out = std::mem::take(&mut self.hw_out);
            for line in out.drain(..) {
                self.issue_prefetch(line, None);
            }
            self.hw_out = out;
        }
    }

    /// Reduces `x` into the data footprint: a mask when the footprint is a
    /// power of two (bit-identical to the modulo), a division otherwise.
    #[inline]
    fn data_index(&self, x: u64) -> u64 {
        if self.data_mask != 0 {
            x & self.data_mask
        } else {
            x % self.data_lines
        }
    }

    /// Replays the block's data accesses.
    fn data_side(&mut self, block_id: BlockId, meta: &BlockMeta) {
        for k in 0..meta.data_accesses {
            self.m.d_accesses += 1;
            let site = mix(u64::from(block_id.0), u64::from(k));
            let line = if site % 100 < self.stream_threshold {
                self.stream_counter = self.stream_counter.wrapping_add(1);
                Line::new(DATA_LINE_BASE + self.data_index(self.stream_counter))
            } else {
                Line::new(DATA_LINE_BASE + self.data_index(site))
            };
            let out = self.hier.load_data(line);
            if out.extra_cycles > 0 {
                self.m.d_misses += 1;
                let stall = (f64::from(out.extra_cycles) * self.d_stall_factor) as u64;
                self.m.d_stall_cycles += stall;
                self.cycle += stall;
            }
        }
    }
}

/// Replays `trace` through the simulated machine: [`run_streaming`] over
/// the trace's events as one borrowed chunk.
///
/// # Panics
///
/// Panics if the trace references blocks outside `program`.
///
/// # Examples
///
/// ```
/// use ispy_isa::{InjectionMap, PrefetchOp};
/// use ispy_sim::{run, RunOptions, SimConfig};
/// use ispy_trace::apps;
///
/// let model = apps::tomcat().scaled_down(40);
/// let program = model.generate();
/// let trace = program.record_trace(model.default_input(), 5_000);
/// let result = run(&program, &trace, &SimConfig::default(), RunOptions::default());
/// assert_eq!(result.blocks, 5_000);
/// ```
pub fn run(program: &Program, trace: &Trace, cfg: &SimConfig, opts: RunOptions<'_>) -> SimResult {
    run_streaming(program, &mut TraceBlocks::of_trace(trace), cfg, opts)
        .expect("in-memory traces cannot fail")
}

/// Resolves a run's plan into the shared handle the engine holds: the
/// pre-compiled plan if given (cloned once — a memcpy of the dense tables,
/// negligible next to a replay), the lowered map otherwise.
fn lower_plan(program: &Program, opts: &RunOptions<'_>) -> Arc<CompiledInjections> {
    Arc::new(match opts.compiled {
        Some(c) => c.clone(),
        None => compile_plan(program, opts.injections),
    })
}

/// Lowers a plan map over `program`'s blocks; an absent or empty map is the
/// empty plan, which skips building the dense tables.
pub(crate) fn compile_plan(program: &Program, map: Option<&InjectionMap>) -> CompiledInjections {
    match map {
        Some(map) if !map.is_empty() => map.compile(program.num_blocks()),
        _ => CompiledInjections::default(),
    }
}

/// Replays a [`BlockSource`] through the simulated machine, chunk by chunk.
///
/// This is [`run`] with the trace decoupled from RAM: the engine's per-block
/// semantics are chunk-agnostic (each internal replay call continues from
/// the machine state the previous one left), so the result is byte-identical
/// to materializing the source into a `Vec` and calling [`run`] — for any
/// source and any chunking. The injected fast path (skip index, arena
/// in-flight, hot ops) is reused unchanged. Peak memory is one chunk plus
/// the fixed machine state, which is what removes the RAM ceiling on trace
/// length.
///
/// # Errors
///
/// Propagates the source's typed [`ArtifactError`]s (a decoding source may
/// fail mid-stream on corrupt or truncated input); no result is returned for
/// a stream that did not complete cleanly.
///
/// # Panics
///
/// Panics if the source yields blocks outside `program`.
///
/// # Examples
///
/// ```
/// use ispy_sim::{run, run_streaming, RunOptions, SimConfig};
/// use ispy_trace::source::TraceBlocks;
/// use ispy_trace::apps;
///
/// let model = apps::tomcat().scaled_down(40);
/// let program = model.generate();
/// let trace = program.record_trace(model.default_input(), 5_000);
/// let cfg = SimConfig::default();
/// let direct = run(&program, &trace, &cfg, RunOptions::default());
/// let mut source = TraceBlocks::with_chunk(trace.blocks(), 512);
/// let streamed = run_streaming(&program, &mut source, &cfg, RunOptions::default()).unwrap();
/// assert_eq!(streamed, direct);
/// ```
pub fn run_streaming<S: BlockSource + ?Sized>(
    program: &Program,
    source: &mut S,
    cfg: &SimConfig,
    mut opts: RunOptions<'_>,
) -> Result<SimResult, ArtifactError> {
    let injections = lower_plan(program, &opts);
    let mut eng = Engine::new(
        program,
        cfg,
        injections,
        opts.observer.take(),
        opts.hw_prefetcher.take(),
        opts.outcomes.take(),
        opts.reference_loop,
        false,
    );
    let mut idx0 = 0usize;
    while let Some(chunk) = source.next_chunk()? {
        eng.replay(chunk, idx0);
        idx0 += chunk.len();
    }
    Ok(eng.result_so_far())
}

/// Cheap 64-bit mix for deterministic pseudo-random data addresses.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(b.wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(0x94D049BB133111EB);
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58476D1CE4E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispy_isa::PrefetchOp;
    use ispy_trace::apps;

    fn small_app() -> (Program, Trace) {
        let model = apps::cassandra().scaled_down(30);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 30_000);
        (program, trace)
    }

    #[test]
    fn deterministic_replay() {
        let (p, t) = small_app();
        let a = run(&p, &t, &SimConfig::default(), RunOptions::default());
        let b = run(&p, &t, &SimConfig::default(), RunOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn ideal_is_fastest_and_missless() {
        let (p, t) = small_app();
        let base = run(&p, &t, &SimConfig::default(), RunOptions::default());
        let ideal = run(&p, &t, &SimConfig::ideal(), RunOptions::default());
        assert_eq!(ideal.i_misses, 0);
        assert_eq!(ideal.i_stall_cycles, 0);
        assert!(ideal.cycles < base.cycles);
        assert!(base.i_misses > 0, "workload must actually miss");
    }

    #[test]
    fn baseline_workload_is_frontend_bound() {
        let (p, t) = small_app();
        let base = run(&p, &t, &SimConfig::default(), RunOptions::default());
        let fb = base.frontend_bound();
        assert!(fb > 0.15, "frontend-bound fraction {fb} too small to study");
    }

    #[test]
    fn observer_sees_all_blocks_and_misses() {
        #[derive(Default)]
        struct Counter {
            blocks: usize,
            misses: usize,
        }
        impl SimObserver for Counter {
            fn block_entered(&mut self, _i: usize, _b: BlockId, _c: u64) {
                self.blocks += 1;
            }
            fn icache_miss(&mut self, _i: usize, _b: BlockId, _l: Line, _c: u64) {
                self.misses += 1;
            }
        }
        let (p, t) = small_app();
        let mut obs = Counter::default();
        let r = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions { observer: Some(&mut obs), ..Default::default() },
        );
        assert_eq!(obs.blocks as u64, r.blocks);
        assert_eq!(obs.misses as u64, r.i_misses);
    }

    #[test]
    fn plain_injection_reduces_misses_on_repeating_pattern() {
        // Inject, at every block, a prefetch of the line that block's
        // successor misses — here simply prefetch every block's own next
        // lines far in advance via a map built from a profiling pass.
        let (p, t) = small_app();
        let base = run(&p, &t, &SimConfig::default(), RunOptions::default());

        // Build a crude plan: for each observed miss, inject a plain
        // prefetch 8 dynamic blocks earlier.
        struct Rec {
            events: Vec<(usize, Line)>,
        }
        impl SimObserver for Rec {
            fn icache_miss(&mut self, idx: usize, _b: BlockId, line: Line, _c: u64) {
                self.events.push((idx, line));
            }
        }
        let mut rec = Rec { events: Vec::new() };
        run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions { observer: Some(&mut rec), ..Default::default() },
        );
        let mut map = InjectionMap::new();
        let mut seen = std::collections::HashSet::new();
        for (idx, line) in rec.events {
            if idx >= 8 {
                let site = t.blocks()[idx - 8];
                if seen.insert((site, line)) {
                    map.push(site, PrefetchOp::Plain { target: line });
                }
            }
        }
        let with = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions { injections: Some(&map), ..Default::default() },
        );
        assert!(
            with.i_misses < base.i_misses,
            "prefetching must reduce misses: {} vs {}",
            with.i_misses,
            base.i_misses
        );
        assert!(with.pf_ops_executed > 0);
        assert!(with.pf_useful > 0);
    }

    #[test]
    fn conditional_op_with_impossible_context_never_fires() {
        let (p, t) = small_app();
        let mut map = InjectionMap::new();
        // A context hash demanding every bit set will (essentially) never
        // match a 32-entry LBR under the 16-bit scheme... but could.
        // Use all 64 bits of a 64-bit scheme for certainty.
        let cfg = SimConfig::default().with_hash(ispy_isa::HashConfig::new(64, 2));
        let ctx = ispy_isa::ContextHash::from_bits(u64::MAX, 64);
        map.push(t.blocks()[0], PrefetchOp::Cond { target: Line::new(0x999999), ctx });
        let r = run(&p, &t, &cfg, RunOptions { injections: Some(&map), ..Default::default() });
        assert!(r.pf_ops_executed > 0);
        assert_eq!(r.pf_ops_fired, 0);
        assert_eq!(r.pf_ops_suppressed, r.pf_ops_executed);
        assert_eq!(r.pf_lines_issued, 0);
    }

    #[test]
    fn injected_ops_count_toward_dynamic_instrs() {
        let (p, t) = small_app();
        let mut map = InjectionMap::new();
        map.push(t.blocks()[0], PrefetchOp::Plain { target: Line::new(1) });
        let r = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions { injections: Some(&map), ..Default::default() },
        );
        assert_eq!(r.instrs, r.base_instrs + r.pf_ops_executed);
        assert!(r.dynamic_increase() > 0.0);
    }

    #[test]
    fn useless_prefetches_hurt_or_do_not_help() {
        let (p, t) = small_app();
        let base = run(&p, &t, &SimConfig::default(), RunOptions::default());
        // Prefetch garbage lines everywhere: pure pollution.
        let mut map = InjectionMap::new();
        let hot: Vec<BlockId> = t.blocks()[..200].to_vec();
        for (i, b) in hot.into_iter().enumerate() {
            map.push(b, PrefetchOp::Plain { target: Line::new(0xBAD_0000 + i as u64 * 7) });
        }
        let with = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions { injections: Some(&map), ..Default::default() },
        );
        assert!(with.cycles >= base.cycles, "{} < {}", with.cycles, base.cycles);
        assert_eq!(with.pf_useful, 0);
    }

    #[test]
    fn coalesced_op_prefetches_all_targets() {
        let (p, t) = small_app();
        let mut map = InjectionMap::new();
        let mask = ispy_isa::CoalesceMask::from_bits(0xFF, 8);
        map.push(t.blocks()[0], PrefetchOp::Coalesced { base: Line::new(0x700000), mask });
        let r = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions { injections: Some(&map), ..Default::default() },
        );
        // Base + 8 extra lines, issued at least once (the first execution).
        assert!(r.pf_lines_issued >= 9);
    }

    #[test]
    fn hw_prefetcher_hook_is_invoked() {
        struct NextLine;
        impl HwPrefetcher for NextLine {
            fn on_fetch(&mut self, line: Line, was_miss: bool, out: &mut Vec<Line>) {
                if was_miss {
                    out.push(line.offset(1));
                }
            }
        }
        let (p, t) = small_app();
        let base = run(&p, &t, &SimConfig::default(), RunOptions::default());
        let mut hw = NextLine;
        let r = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions { hw_prefetcher: Some(&mut hw), ..Default::default() },
        );
        assert!(r.pf_lines_issued > 0);
        assert!(r.i_misses < base.i_misses, "next-line should help sequential code");
    }

    #[test]
    fn timely_prefetch_eliminates_stall_late_prefetch_reduces_it() {
        // Construct a two-block loop: block 0 (hot) and block 1 at a far
        // line. Injecting a prefetch of block 1's line at block 0 hides the
        // latency when the issue-to-use distance is long enough.
        use ispy_trace::program::{BlockExit, FuncId, Function};
        use ispy_trace::{Addr, BasicBlock, Program};
        let blocks = vec![
            BasicBlock::new(Addr::new(0), 64, 64, 0), // 16 issue cycles
            BasicBlock::new(Addr::new(1 << 20), 64, 16, 0),
        ];
        let exits = vec![
            BlockExit::Branch(vec![(BlockId(1), 1.0)]),
            BlockExit::Branch(vec![(BlockId(0), 1.0)]),
        ];
        let funcs = vec![Function::new(BlockId(0), 0, 2)];
        let owner = vec![FuncId(0), FuncId(0)];
        let program = Program::new("loop", blocks, exits, funcs, owner, vec![vec![FuncId(0)]]);
        let trace = program.record_trace(ispy_trace::InputSpec::uniform(0, 1), 4_000);
        let cfg = SimConfig::default();
        // Thrash block 1's line out of L1I? In this tiny program it stays
        // resident, so instead compare cold-start behaviour over a fresh
        // hierarchy per run: the first access misses either way; with the
        // prefetch the *remaining stall* shrinks because the line is in
        // flight by the time it is fetched.
        let base = run(&program, &trace, &cfg, RunOptions::default());
        let mut map = InjectionMap::new();
        map.push(BlockId(0), PrefetchOp::Plain { target: Line::new((1 << 20) / 64) });
        let with = run(
            &program,
            &trace,
            &cfg,
            RunOptions { injections: Some(&map), ..Default::default() },
        );
        assert!(with.i_stall_cycles <= base.i_stall_cycles);
        assert!(with.pf_lines_resident > 0, "steady-state firings find the line resident");
    }

    #[test]
    fn late_prefetch_counts_as_miss_but_shortens_stall() {
        // Issue a prefetch of a memory-resident line in the same block that
        // fetches it next: the prefetch is in flight when the demand
        // arrives (late), the stall is the remaining time, and the event
        // still counts as a miss.
        use ispy_trace::program::{BlockExit, FuncId, Function};
        use ispy_trace::{Addr, BasicBlock, Program};
        let target_line = Line::new((1 << 21) / 64);
        // Block 0: 4 instrs + the injected op = ceil(5/4) = 2 issue cycles,
        // after a 257-cycle cold miss -> block 1 enters at cycle 259, one
        // cycle before the 260-cycle prefetch completes: strictly late.
        let blocks = vec![
            BasicBlock::new(Addr::new(0), 32, 4, 0),
            BasicBlock::new(Addr::new(1 << 21), 32, 8, 0),
        ];
        let exits = vec![BlockExit::Branch(vec![(BlockId(1), 1.0)]), BlockExit::Return];
        let funcs = vec![Function::new(BlockId(0), 0, 2)];
        let owner = vec![FuncId(0), FuncId(0)];
        let program = Program::new("late", blocks, exits, funcs, owner, vec![vec![FuncId(0)]]);
        let trace = ispy_trace::Trace::new("late", vec![BlockId(0), BlockId(1)]);
        let mut map = InjectionMap::new();
        map.push(BlockId(0), PrefetchOp::Plain { target: target_line });
        let cfg = SimConfig::default();
        let base = run(&program, &trace, &cfg, RunOptions::default());
        let with = run(
            &program,
            &trace,
            &cfg,
            RunOptions { injections: Some(&map), ..Default::default() },
        );
        assert_eq!(with.pf_late, 1, "demand must catch the prefetch in flight");
        assert_eq!(with.i_misses, base.i_misses, "late prefetch still counts as a miss");
        assert!(
            with.i_stall_cycles < base.i_stall_cycles,
            "but the stall shrinks: {} vs {}",
            with.i_stall_cycles,
            base.i_stall_cycles
        );
    }

    #[test]
    fn ideal_icache_still_runs_data_side_and_issue() {
        let (p, t) = small_app();
        let r = run(&p, &t, &SimConfig::ideal(), RunOptions::default());
        assert!(r.cycles > 0);
        assert!(r.d_accesses > 0);
        assert_eq!(r.i_misses, 0);
        // Accesses are still counted for bookkeeping.
        assert!(r.i_accesses > 0);
    }

    #[test]
    fn outcome_ledger_matches_aggregate_counters() {
        use crate::outcome::OutcomeLedger;
        use ispy_isa::ProvenanceId;
        // Build a miss-driven plan as in plain_injection_reduces_misses, but
        // tag every op with a provenance id and check the ledger's totals
        // reconcile exactly with the aggregate SimResult counters.
        let (p, t) = small_app();
        struct Rec {
            events: Vec<(usize, Line)>,
        }
        impl SimObserver for Rec {
            fn icache_miss(&mut self, idx: usize, _b: BlockId, line: Line, _c: u64) {
                self.events.push((idx, line));
            }
        }
        let mut rec = Rec { events: Vec::new() };
        run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions { observer: Some(&mut rec), ..Default::default() },
        );
        let mut map = InjectionMap::new();
        let mut seen = std::collections::HashSet::new();
        let mut next_id = 0u32;
        for (idx, line) in rec.events {
            if idx >= 8 {
                let site = t.blocks()[idx - 8];
                if seen.insert((site, line)) {
                    map.push_traced(
                        site,
                        PrefetchOp::Plain { target: line },
                        ProvenanceId(next_id),
                    );
                    next_id += 1;
                }
            }
        }
        let mut ledger = OutcomeLedger::with_capacity(next_id as usize);
        let r = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions {
                injections: Some(&map),
                outcomes: Some(&mut ledger),
                ..Default::default()
            },
        );
        assert_eq!(ledger.per_injection.len(), next_id as usize);
        assert_eq!(ledger.total(|o| o.executed), r.pf_ops_executed);
        assert_eq!(ledger.total(|o| o.fired), r.pf_ops_fired);
        assert_eq!(ledger.total(|o| o.suppressed), r.pf_ops_suppressed);
        assert_eq!(ledger.total(|o| o.lines_issued), r.pf_lines_issued);
        assert_eq!(ledger.total(|o| o.lines_resident), r.pf_lines_resident);
        assert_eq!(ledger.total(|o| o.useful), r.pf_useful);
        assert_eq!(ledger.total(|o| o.late), r.pf_late);
        assert_eq!(ledger.total(|o| o.evicted_unused), r.pf_evicted_unused);
        // Plain ops are tagged, so nothing should land in the untracked bucket.
        assert_eq!(ledger.untracked, crate::outcome::InjectionOutcome::default());
        // Per-injection invariant: every execution either fired or was suppressed.
        for o in &ledger.per_injection {
            assert_eq!(o.executed, o.fired + o.suppressed);
        }
    }

    #[test]
    fn ledger_routes_hw_prefetches_to_untracked() {
        use crate::outcome::OutcomeLedger;
        struct NextLine;
        impl HwPrefetcher for NextLine {
            fn on_fetch(&mut self, line: Line, was_miss: bool, out: &mut Vec<Line>) {
                if was_miss {
                    out.push(line.offset(1));
                }
            }
        }
        let (p, t) = small_app();
        let mut hw = NextLine;
        let mut ledger = OutcomeLedger::default();
        let r = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions {
                hw_prefetcher: Some(&mut hw),
                outcomes: Some(&mut ledger),
                ..Default::default()
            },
        );
        assert!(ledger.per_injection.is_empty());
        assert_eq!(ledger.untracked.lines_issued, r.pf_lines_issued);
        assert_eq!(ledger.untracked.useful, r.pf_useful);
    }

    #[test]
    fn attaching_a_ledger_does_not_change_results() {
        use crate::outcome::OutcomeLedger;
        let (p, t) = small_app();
        let plain = run(&p, &t, &SimConfig::default(), RunOptions::default());
        let mut ledger = OutcomeLedger::default();
        let observed = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions { outcomes: Some(&mut ledger), ..Default::default() },
        );
        assert_eq!(plain, observed);
    }

    #[test]
    fn reference_loop_matches_fast_path() {
        use crate::outcome::OutcomeLedger;
        let (p, t) = small_app();
        // A sparse plan leaves long injection-free runs for the skip index.
        let mut map = InjectionMap::new();
        for (n, idx) in (0..t.blocks().len()).step_by(701).enumerate() {
            map.push_traced(
                t.blocks()[idx],
                PrefetchOp::Plain { target: Line::new(0x5000 + n as u64) },
                ispy_isa::ProvenanceId(n as u32),
            );
        }
        let mut fast_ledger = OutcomeLedger::default();
        let fast = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions {
                injections: Some(&map),
                outcomes: Some(&mut fast_ledger),
                ..Default::default()
            },
        );
        let mut ref_ledger = OutcomeLedger::default();
        let reference = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions {
                injections: Some(&map),
                outcomes: Some(&mut ref_ledger),
                reference_loop: true,
                ..Default::default()
            },
        );
        assert_eq!(fast, reference);
        assert_eq!(fast_ledger, ref_ledger);
    }

    #[test]
    fn inflight_stale_heap_stays_bounded() {
        // A line demanded before its prefetch completes leaves a stale lane
        // entry behind; compaction must keep the queue proportional to the
        // *live* in-flight set, not to the total number of such events.
        let mut inf = InflightArena::new(16, true);
        for i in 0..100_000u64 {
            let line = Line::new(i % 16);
            inf.insert(line, i + 1_000, None);
            inf.remove(line); // demand hit while in flight
        }
        assert!(inf.is_empty());
        assert!(
            inf.entries < 2 * INFLIGHT_COMPACT_MIN,
            "stale entries must be compacted away, lanes hold {}",
            inf.entries
        );
    }

    #[test]
    fn inflight_compaction_preserves_drain_order() {
        // Half the lines in the dense arena, half in the far map, so
        // compaction and drain cross both sides.
        let mut inf = InflightArena::new(100, true);
        for i in 0..200u64 {
            inf.insert(Line::new(i), 1_000 - i, None);
        }
        // Invalidate every other line, forcing at least one compaction.
        for i in (0..200u64).step_by(2) {
            inf.remove(Line::new(i));
        }
        let mut drained = Vec::new();
        inf.drain_completed(u64::MAX, |line, _| drained.push(line.raw()));
        let expected: Vec<u64> = (0..200u64).filter(|i| i % 2 == 1).rev().collect();
        assert_eq!(drained, expected, "completion order must survive compaction");
        assert!(inf.is_empty());
    }

    #[test]
    fn inflight_arena_and_far_sides_agree() {
        // Same operation sequence against a dense-arena instance and a
        // limit-0 (all-far) instance: every probe must answer identically.
        let mut dense = InflightArena::new(64, true);
        let mut far = InflightArena::new(0, true);
        let mut state = 0xDEADBEEFu64;
        for step in 0..5_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let line = Line::new(state % 48);
            let tag = (state >> 33 & 1 == 0).then_some(ProvenanceId((state >> 34) as u32 & 0xFFFF));
            match state >> 60 & 3 {
                0 => {
                    if dense.get(line).is_none() {
                        dense.insert(line, step + 3 + state % 100, tag);
                        far.insert(line, step + 3 + state % 100, tag);
                    }
                }
                1 => {
                    dense.remove(line);
                    far.remove(line);
                }
                _ => {
                    let mut a = Vec::new();
                    let mut b = Vec::new();
                    dense.drain_completed(step, |l, t| a.push((l.raw(), t)));
                    far.drain_completed(step, |l, t| b.push((l.raw(), t)));
                    assert_eq!(a, b, "drain diverged at step {step}");
                }
            }
            assert_eq!(dense.get(line), far.get(line));
            assert_eq!(dense.tag(line), far.tag(line));
            assert_eq!(dense.is_empty(), far.is_empty());
        }
    }

    #[test]
    fn precompiled_plan_matches_map_lowering() {
        use crate::outcome::OutcomeLedger;
        use ispy_isa::{CoalesceMask, ProvenanceId};
        // Passing a pre-compiled plan must be byte-identical to handing the
        // engine the raw map, across all four op kinds and the ledger.
        let (p, t) = small_app();
        let hash = SimConfig::default().hash;
        let mut map = InjectionMap::new();
        for (n, idx) in (0..t.blocks().len()).step_by(97).enumerate() {
            let site = t.blocks()[idx];
            let target = Line::new(0x5000 + n as u64 * 3);
            let ctx = hash.context_hash([p.block(site).start()]);
            let mask = CoalesceMask::from_bits(0b1011, 8);
            let op = match n % 4 {
                0 => PrefetchOp::Plain { target },
                1 => PrefetchOp::Cond { target, ctx },
                2 => PrefetchOp::Coalesced { base: target, mask },
                _ => PrefetchOp::CondCoalesced { base: target, mask, ctx },
            };
            map.push_traced(site, op, ProvenanceId(n as u32));
        }
        let mut ledger_map = OutcomeLedger::default();
        let via_map = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions {
                injections: Some(&map),
                outcomes: Some(&mut ledger_map),
                ..Default::default()
            },
        );
        let compiled = map.compile(p.num_blocks());
        let mut ledger_pre = OutcomeLedger::default();
        let via_compiled = run(
            &p,
            &t,
            &SimConfig::default(),
            RunOptions {
                compiled: Some(&compiled),
                outcomes: Some(&mut ledger_pre),
                ..Default::default()
            },
        );
        assert_eq!(via_map, via_compiled);
        assert_eq!(ledger_map, ledger_pre);
        assert!(via_map.pf_ops_executed > 0);
    }

    #[test]
    fn data_side_is_exercised() {
        let (p, t) = small_app();
        let r = run(&p, &t, &SimConfig::default(), RunOptions::default());
        assert!(r.d_accesses > 0);
        assert!(r.d_misses > 0);
        assert!(r.d_stall_cycles > 0);
    }

    #[test]
    fn flush_schedule_costs_cycles_and_none_effect_is_free() {
        use crate::switch::{SwitchEffect, SwitchSchedule};
        use std::sync::Arc;
        let (p, t) = small_app();
        let base = run(&p, &t, &SimConfig::default(), RunOptions::default());
        let switches: Vec<(u64, u32)> =
            (1..10).map(|k| (k * t.blocks().len() as u64 / 10, (k % 2) as u32)).collect();
        let mk = |effect| {
            let cfg = SimConfig {
                schedule: Some(Arc::new(SwitchSchedule::new(switches.clone(), vec![], effect))),
                ..SimConfig::default()
            };
            run(&p, &t, &cfg, RunOptions::default())
        };
        // Tagging boundaries without touching the caches replays exactly.
        assert_eq!(mk(SwitchEffect::None), base);
        // Flushing the L1I/L2 at every switch must cost misses and cycles.
        let flushed = mk(SwitchEffect::Flush);
        assert!(flushed.i_misses > base.i_misses);
        assert!(flushed.cycles > base.cycles);
        // Partial thrash lands strictly between the two.
        let thrashed = mk(SwitchEffect::Thrash { l1i_pct: 50, l2_pct: 25 });
        assert!(thrashed.i_misses > base.i_misses);
        assert!(thrashed.i_misses < flushed.i_misses);
    }

    #[test]
    fn observer_sees_schedule_boundaries_in_order() {
        use crate::switch::{SwitchEffect, SwitchSchedule};
        use std::sync::Arc;
        #[derive(Default)]
        struct Boundaries {
            phases: Vec<(usize, u32)>,
            switches: Vec<(usize, u32)>,
        }
        impl SimObserver for Boundaries {
            fn phase_boundary(&mut self, idx: usize, phase: u32, _c: u64) {
                self.phases.push((idx, phase));
            }
            fn tenant_switch(&mut self, idx: usize, tenant: u32, _c: u64) {
                self.switches.push((idx, tenant));
            }
        }
        let (p, t) = small_app();
        let n = t.blocks().len() as u64;
        let cfg = SimConfig {
            schedule: Some(Arc::new(SwitchSchedule::new(
                vec![(n / 4, 1), (n / 2, 0), (3 * n / 4, 1)],
                vec![(n / 3, 1), (2 * n / 3, 2)],
                SwitchEffect::Flush,
            ))),
            ..SimConfig::default()
        };
        let mut obs = Boundaries::default();
        run(&p, &t, &cfg, RunOptions { observer: Some(&mut obs), ..Default::default() });
        assert_eq!(obs.switches.len(), 3);
        assert_eq!(obs.phases.len(), 2);
        assert_eq!(obs.switches.iter().map(|&(_, t)| t).collect::<Vec<_>>(), vec![1, 0, 1]);
        assert_eq!(obs.phases.iter().map(|&(_, p)| p).collect::<Vec<_>>(), vec![1, 2]);
        // Each boundary fires at exactly its scheduled event index.
        assert_eq!(obs.switches[0].0 as u64, n / 4);
        assert_eq!(obs.phases[0].0 as u64, n / 3);
    }

    #[test]
    fn reference_loop_matches_fast_path_under_schedule() {
        use crate::switch::{SwitchEffect, SwitchSchedule};
        use std::sync::Arc;
        let (p, t) = small_app();
        let n = t.blocks().len() as u64;
        let mut map = InjectionMap::new();
        for (k, idx) in (0..t.blocks().len()).step_by(701).enumerate() {
            map.push(t.blocks()[idx], PrefetchOp::Plain { target: Line::new(0x5000 + k as u64) });
        }
        let cfg = SimConfig {
            schedule: Some(Arc::new(SwitchSchedule::new(
                (1..16).map(|k| (k * n / 16, (k % 3) as u32)).collect(),
                vec![(n / 2, 1)],
                SwitchEffect::Thrash { l1i_pct: 70, l2_pct: 30 },
            ))),
            ..SimConfig::default()
        };
        let fast = run(&p, &t, &cfg, RunOptions { injections: Some(&map), ..Default::default() });
        let reference = run(
            &p,
            &t,
            &cfg,
            RunOptions { injections: Some(&map), reference_loop: true, ..Default::default() },
        );
        assert_eq!(fast, reference, "lean batching must stop exactly at boundaries");
    }
}
