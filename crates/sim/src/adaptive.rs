//! Mid-run plan hot-swapping and the window-pipelined adaptive driver.
//!
//! A static run fixes its injection plan before the first block; an
//! *adaptive* run revises it as the trace unfolds, the way a production
//! I-SPY deployment would redeploy injections as fresh profiles stream in.
//! Two pieces make that deterministic and cheap:
//!
//! * [`AdaptiveEngine`] wraps the replay engine with
//!   [`swap_plan`](AdaptiveEngine::swap_plan): a new [`InjectionMap`] is
//!   compiled, its provenance ids rebased into a fresh generation range
//!   (see [`CompiledInjections::rebase_provenance`]), and installed at a
//!   **swap barrier** — between `replay` calls, i.e. at a block boundary.
//!   The result depends only on *which block index* the swap lands on,
//!   never on wall-clock timing, and prefetches issued under the old plan
//!   stay in flight and drain under their old (disjoint) provenance ids.
//! * [`run_adaptive`] drives a [`WindowedBlockSource`] window by window,
//!   running the caller's replanning closure for window `k` on a helper
//!   thread *while* window `k` simulates — the plan derived from window `k`
//!   takes effect at the start of window `k + 1`. With a closure that never
//!   returns a plan this degenerates to exactly [`run`](crate::run).
//!
//! [`CompiledInjections`]: ispy_isa::CompiledInjections
//! [`CompiledInjections::rebase_provenance`]: ispy_isa::CompiledInjections::rebase_provenance

use crate::config::SimConfig;
use crate::engine::{compile_plan, Engine};
use crate::metrics::SimResult;
use crate::outcome::OutcomeLedger;
use crate::shard::WindowedBlockSource;
use ispy_artifact::ArtifactError;
use ispy_isa::InjectionMap;
use ispy_trace::{BlockId, BlockSource, Program};
use std::ops::Range;
use std::sync::Arc;

/// A replay engine whose injection plan can be replaced between blocks.
///
/// Each installed plan is a *generation*: its provenance ids are rebased
/// past every earlier generation's, so an attached [`OutcomeLedger`] keeps
/// one row per (generation, injection) and in-flight prefetches crossing a
/// swap attribute to the generation that issued them.
pub struct AdaptiveEngine<'p, 'o> {
    program: &'p Program,
    eng: Engine<'o>,
    /// Absolute trace position of the next replayed block.
    idx: usize,
    /// First unused provenance id; the next generation rebases onto it.
    id_base: u32,
}

impl<'p, 'o> AdaptiveEngine<'p, 'o> {
    /// Builds an engine over `program` with `initial` as generation zero.
    ///
    /// The in-flight arenas are sized for the program up front even when
    /// `initial` is empty, so later [`swap_plan`](Self::swap_plan)s run at
    /// full speed.
    pub fn new(
        program: &'p Program,
        cfg: &SimConfig,
        initial: &InjectionMap,
        outcomes: Option<&'o mut OutcomeLedger>,
    ) -> Self {
        let mut compiled = compile_plan(program, Some(initial));
        let id_base = compiled.rebase_provenance(0);
        let eng = Engine::new(program, cfg, Arc::new(compiled), None, None, outcomes, false, true);
        AdaptiveEngine { program, eng, idx: 0, id_base }
    }

    /// Replays the next `blocks` of the trace under the current plan.
    pub fn replay(&mut self, blocks: &[BlockId]) {
        self.eng.replay(blocks, self.idx);
        self.idx += blocks.len();
    }

    /// Installs `plan` as the next generation, effective for the next
    /// [`replay`](Self::replay) call (the swap barrier: a block boundary).
    ///
    /// Returns the provenance id range the generation was rebased into —
    /// its rows in an attached ledger. Prefetches still in flight keep the
    /// previous generation's ids and drain normally.
    ///
    /// # Panics
    ///
    /// Panics if the cumulative id space across generations overflows
    /// `u32` (see [`rebase_provenance`]).
    ///
    /// [`rebase_provenance`]: ispy_isa::CompiledInjections::rebase_provenance
    pub fn swap_plan(&mut self, plan: &InjectionMap) -> Range<u32> {
        let mut compiled = compile_plan(self.program, Some(plan));
        let span = compiled.rebase_provenance(self.id_base);
        let start = self.id_base;
        self.id_base = start.checked_add(span).expect("provenance id space exhausted");
        self.eng.swap_plan(self.program, Arc::new(compiled));
        start..self.id_base
    }

    /// The counters accumulated so far across every generation.
    pub fn result_so_far(&self) -> SimResult {
        self.eng.result_so_far()
    }

    /// A copy of the attached ledger's current state (None when detached).
    pub fn ledger_snapshot(&self) -> Option<OutcomeLedger> {
        self.eng.ledger_snapshot()
    }
}

/// What [`run_adaptive`] produced: the aggregate counters, the per-window
/// deltas (window `k`'s share of every counter — MPKI convergence falls out
/// of these), and how many plan swaps were applied.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdaptiveRun {
    /// Aggregate counters over the whole trace, identical in shape to what
    /// [`run`](crate::run) returns.
    pub total: SimResult,
    /// Per-window counter deltas, in window order.
    pub windows: Vec<SimResult>,
    /// Number of windows whose replanning closure installed a new plan.
    pub swaps: usize,
}

/// Replays `source` window by window, replanning concurrently: while window
/// `k` simulates, `replan(k, &window_k_blocks)` runs on a helper thread; a
/// `Some(plan)` it returns is hot-swapped in at the start of window `k + 1`.
///
/// The pipelining is *not* observable in the results: the swap barrier fixes
/// each generation's effective range to whole windows, so the outcome equals
/// a sequential loop that replays window `k`, then replans, then swaps —
/// regardless of thread scheduling. `replan` always sees the window that
/// *just simulated*, mirroring an online profiler that reacts one window
/// behind.
///
/// # Errors
///
/// Propagates the source's typed [`ArtifactError`]s, as
/// [`run_streaming`](crate::run_streaming) does.
///
/// # Panics
///
/// Panics if `window_blocks` is zero, the source yields blocks outside
/// `program`, or the replanning closure panics.
///
/// # Examples
///
/// ```
/// use ispy_isa::InjectionMap;
/// use ispy_sim::{run, run_adaptive, RunOptions, SimConfig, SliceWindows};
/// use ispy_trace::apps;
///
/// let model = apps::tomcat().scaled_down(40);
/// let program = model.generate();
/// let trace = program.record_trace(model.default_input(), 5_000);
/// let cfg = SimConfig::default();
/// // A replanner that never revises the plan reproduces `run` exactly.
/// let adaptive = run_adaptive(
///     &program,
///     &cfg,
///     &SliceWindows::of_trace(&trace),
///     1_000,
///     &InjectionMap::new(),
///     None,
///     |_k, _blocks| None,
/// )
/// .unwrap();
/// assert_eq!(adaptive.total, run(&program, &trace, &cfg, RunOptions::default()));
/// assert_eq!(adaptive.windows.len(), 5);
/// assert_eq!(adaptive.swaps, 0);
/// ```
pub fn run_adaptive<W, F>(
    program: &Program,
    cfg: &SimConfig,
    source: &W,
    window_blocks: usize,
    initial: &InjectionMap,
    outcomes: Option<&mut OutcomeLedger>,
    mut replan: F,
) -> Result<AdaptiveRun, ArtifactError>
where
    W: WindowedBlockSource,
    F: FnMut(usize, &[BlockId]) -> Option<InjectionMap> + Send,
{
    assert!(window_blocks > 0, "window_blocks must be positive");
    let mut eng = AdaptiveEngine::new(program, cfg, initial, outcomes);
    let total_events = source.total_events();
    let mut windows = Vec::new();
    let mut swaps = 0usize;
    let mut buf: Vec<BlockId> = Vec::new();
    let mut start = 0u64;
    let mut k = 0usize;
    while start < total_events {
        let len = (window_blocks as u64).min(total_events - start);
        buf.clear();
        let mut w = source.open_window(start, len);
        while let Some(chunk) = w.next_chunk()? {
            buf.extend_from_slice(chunk);
        }
        let before = eng.result_so_far();
        let blocks: &[BlockId] = &buf;
        // Overlap: the replanner chews on window k while the engine replays
        // it. The join is the swap barrier — the new plan cannot take
        // effect before the window completes.
        let next = std::thread::scope(|s| {
            let handle = s.spawn(|| replan(k, blocks));
            eng.replay(blocks);
            handle.join().expect("replanning closure panicked")
        });
        windows.push(eng.result_so_far().delta_since(&before));
        if let Some(plan) = next {
            eng.swap_plan(&plan);
            swaps += 1;
        }
        start += len;
        k += 1;
    }
    Ok(AdaptiveRun { total: eng.result_so_far(), windows, swaps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, RunOptions, SimObserver};
    use crate::shard::SliceWindows;
    use ispy_isa::{PrefetchOp, ProvenanceId};
    use ispy_trace::{apps, Line, Trace};

    fn small_app() -> (Program, Trace) {
        let model = apps::cassandra().scaled_down(30);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 30_000);
        (program, trace)
    }

    /// A crude miss-derived plan: prefetch each missed line 8 dynamic
    /// blocks ahead of where it missed, optionally tagging ops with
    /// sequential provenance ids.
    fn miss_plan(p: &Program, t: &Trace, tagged: bool) -> InjectionMap {
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
            p,
            t,
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
                    if tagged {
                        map.push_traced(
                            site,
                            PrefetchOp::Plain { target: line },
                            ProvenanceId(next_id),
                        );
                        next_id += 1;
                    } else {
                        map.push(site, PrefetchOp::Plain { target: line });
                    }
                }
            }
        }
        map
    }

    #[test]
    fn swapping_in_the_same_plan_is_invisible() {
        let (p, t) = small_app();
        let map = miss_plan(&p, &t, false);
        let cfg = SimConfig::default();
        let straight =
            run(&p, &t, &cfg, RunOptions { injections: Some(&map), ..Default::default() });
        let mut eng = AdaptiveEngine::new(&p, &cfg, &map, None);
        let mid = t.blocks().len() / 2;
        eng.replay(&t.blocks()[..mid]);
        eng.swap_plan(&map);
        eng.replay(&t.blocks()[mid..]);
        assert_eq!(eng.result_so_far(), straight);
    }

    #[test]
    fn swap_result_is_chunking_invariant_and_deterministic() {
        let (p, t) = small_app();
        let p1 = miss_plan(&p, &t, false);
        let mut p2 = InjectionMap::new();
        for (i, b) in p.blocks().iter().enumerate().step_by(5) {
            p2.push(
                BlockId(i as u32),
                PrefetchOp::Plain { target: Line::new(b.first_line().raw() + 1) },
            );
        }
        let cfg = SimConfig::default();
        let swap_at = 11_000usize;
        let run_with_chunk = |chunk: usize| {
            let mut eng = AdaptiveEngine::new(&p, &cfg, &p1, None);
            for piece in t.blocks()[..swap_at].chunks(chunk) {
                eng.replay(piece);
            }
            eng.swap_plan(&p2);
            for piece in t.blocks()[swap_at..].chunks(chunk) {
                eng.replay(piece);
            }
            eng.result_so_far()
        };
        let a = run_with_chunk(swap_at); // two replay calls total
        let b = run_with_chunk(617); // many ragged chunks, same barrier
        let c = run_with_chunk(617); // repeatability
        assert_eq!(a, b, "swap outcome must depend only on the barrier block index");
        assert_eq!(b, c);
        // Sanity: the swap actually changed behaviour vs. either pure plan.
        let pure1 = run(&p, &t, &cfg, RunOptions { injections: Some(&p1), ..Default::default() });
        let pure2 = run(&p, &t, &cfg, RunOptions { injections: Some(&p2), ..Default::default() });
        assert_ne!(a, pure1);
        assert_ne!(a, pure2);
    }

    #[test]
    fn generations_get_disjoint_ledger_rows() {
        let (p, t) = small_app();
        let map = miss_plan(&p, &t, true);
        let cfg = SimConfig::default();
        let mut ledger = OutcomeLedger::default();
        let third = t.blocks().len() / 3;
        let (r0, r1);
        {
            let mut eng = AdaptiveEngine::new(&p, &cfg, &map, Some(&mut ledger));
            eng.replay(&t.blocks()[..third]);
            r1 = eng.swap_plan(&map);
            eng.replay(&t.blocks()[third..2 * third]);
            r0 = 0..r1.start;
            eng.replay(&t.blocks()[2 * third..]);
        }
        assert_eq!(r0.end, r1.start, "generation ranges must tile the id space");
        assert!(!r1.is_empty());
        assert_eq!(ledger.per_injection.len() as u32, r1.end);
        // Both generations executed ops, in disjoint rows.
        let executed_in = |r: &Range<u32>| {
            ledger.per_injection[r.start as usize..r.end as usize]
                .iter()
                .map(|o| o.executed)
                .sum::<u64>()
        };
        assert!(executed_in(&r0) > 0, "generation 0 must have run before the swap");
        assert!(executed_in(&r1) > 0, "generation 1 must have run after the swap");
        for o in &ledger.per_injection {
            assert_eq!(o.executed, o.fired + o.suppressed);
        }
    }

    #[test]
    fn run_adaptive_with_noop_replanner_matches_plain_run() {
        let (p, t) = small_app();
        let map = miss_plan(&p, &t, false);
        let cfg = SimConfig::default();
        let straight =
            run(&p, &t, &cfg, RunOptions { injections: Some(&map), ..Default::default() });
        let mut seen_windows = Vec::new();
        let adaptive =
            run_adaptive(&p, &cfg, &SliceWindows::of_trace(&t), 7_000, &map, None, |k, blocks| {
                seen_windows.push((k, blocks.len()));
                None
            })
            .unwrap();
        assert_eq!(adaptive.total, straight);
        assert_eq!(adaptive.swaps, 0);
        assert_eq!(seen_windows, vec![(0, 7_000), (1, 7_000), (2, 7_000), (3, 7_000), (4, 2_000)]);
        let mut summed = SimResult::default();
        for w in &adaptive.windows {
            summed.accumulate(w);
        }
        assert_eq!(summed, adaptive.total, "window deltas must tile the run");
    }

    #[test]
    fn run_adaptive_swaps_match_the_sequential_barrier_semantics() {
        let (p, t) = small_app();
        let p1 = InjectionMap::new();
        let p2 = miss_plan(&p, &t, false);
        let cfg = SimConfig::default();
        let window = 10_000usize;
        // Pipelined driver: replan after window 0 installs p2 for windows 1+.
        let adaptive =
            run_adaptive(&p, &cfg, &SliceWindows::of_trace(&t), window, &p1, None, |k, _blocks| {
                if k == 0 {
                    Some(p2.clone())
                } else {
                    None
                }
            })
            .unwrap();
        assert_eq!(adaptive.swaps, 1);
        // Sequential reference: same barrier, no helper thread.
        let mut eng = AdaptiveEngine::new(&p, &cfg, &p1, None);
        eng.replay(&t.blocks()[..window]);
        eng.swap_plan(&p2);
        eng.replay(&t.blocks()[window..]);
        assert_eq!(adaptive.total, eng.result_so_far());
        // The swapped-in plan must actually fire in later windows.
        assert_eq!(adaptive.windows[0].pf_ops_executed, 0);
        assert!(adaptive.windows[1].pf_ops_executed > 0);
    }
}
