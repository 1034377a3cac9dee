//! Deterministic intra-trace parallel replay.
//!
//! [`run`](crate::run) is inherently sequential: every block's outcome
//! depends on the microarchitectural state left by every block before it.
//! [`simulate_sharded_source`] trades that strict dependency for parallelism
//! the standard way simulators do (time-sliced sampling with functional
//! warmup): the trace is cut into fixed-size windows, each window is
//! replayed by an independent engine that first replays the `warmup_blocks`
//! immediately preceding the window to reconstruct warm cache/LBR/in-flight
//! state, the warmup's counters are subtracted back out via
//! snapshot-and-delta, and the per-window deltas are summed in window order.
//!
//! Two properties are load-bearing:
//!
//! 1. **Shard-count invariance.** A window's result depends only on the
//!    trace slice it replays — never on which worker ran it or how many
//!    workers exist — and the stitch-up sums deltas in window index order.
//!    The output is therefore byte-identical for *any* `shards` value
//!    (the `parallel_determinism` suite sweeps 1/2/4/8).
//! 2. **Exactness at one window.** When `window_blocks` covers the whole
//!    trace there is a single window with no warmup, and the result equals
//!    [`run`](crate::run) exactly. Warmup only approximates the sequential
//!    machine state for *later* windows; longer warmups converge toward the
//!    sequential result at the cost of more replayed blocks.
//!
//! This is an opt-in layer: nothing in [`run`](crate::run) changes, and the
//! defaults here are tuned for the bundled app models (64k-block windows,
//! 8k-block warmup).

use crate::config::SimConfig;
use crate::engine::{compile_plan, Engine};
use crate::metrics::SimResult;
use crate::outcome::OutcomeLedger;
use ispy_artifact::ArtifactError;
use ispy_isa::InjectionMap;
use ispy_trace::{BlockId, BlockSource, Program, Trace, TraceBlocks, Walker, WalkerSource};
use std::sync::Arc;

/// Shape of a sharded replay: how the trace is sliced and how many workers
/// replay slices concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Blocks per window (each window is one unit of parallel work).
    pub window_blocks: usize,
    /// Blocks replayed before each window (uncounted) to reconstruct warm
    /// microarchitectural state. The first window never needs warmup.
    pub warmup_blocks: usize,
    /// Worker threads; `0` means the process-wide
    /// [`ispy_parallel::threads`] budget.
    pub shards: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { window_blocks: 65_536, warmup_blocks: 8_192, shards: 0 }
    }
}

impl ShardConfig {
    /// The worker count this configuration resolves to.
    pub fn resolved_shards(&self) -> usize {
        if self.shards == 0 {
            ispy_parallel::threads()
        } else {
            self.shards
        }
    }
}

/// A trace that can hand out independent [`BlockSource`]s over arbitrary
/// `[start, start + len)` event ranges, concurrently.
///
/// This is what sharded replay actually requires of its input — not a
/// materialized `&[BlockId]`, just the ability to (re)produce any window of
/// the event sequence on demand. Two implementations cover both ends of the
/// memory spectrum:
///
/// * [`SliceWindows`] borrows windows out of an in-RAM slice (zero copy;
///   exactly the old slicing behaviour), and
/// * [`GenWindows`] *re-generates* windows from periodic [`Walker`]
///   checkpoints, so a billion-block synthetic trace shards without ever
///   existing in memory.
///
/// Implementors must be deterministic: every `open_window(s, l)` call yields
/// the same block sequence, and that sequence equals the corresponding range
/// of the full trace.
pub trait WindowedBlockSource: Sync {
    /// The per-window stream type. Generic over `'a` so slice-backed
    /// implementations can borrow from `self`.
    type Window<'a>: BlockSource
    where
        Self: 'a;

    /// Opens a fresh stream over events `start .. min(start + len, total)`.
    /// Callable from multiple threads at once.
    fn open_window(&self, start: u64, len: u64) -> Self::Window<'_>;

    /// Total events in the trace this source represents.
    fn total_events(&self) -> u64;
}

/// [`WindowedBlockSource`] over a materialized block slice: windows are
/// plain subslice borrows, so sharding over it is byte-for-byte the old
/// slice-indexing code path.
#[derive(Debug, Clone, Copy)]
pub struct SliceWindows<'t> {
    blocks: &'t [BlockId],
}

impl<'t> SliceWindows<'t> {
    /// Windows over `blocks`.
    pub fn new(blocks: &'t [BlockId]) -> Self {
        SliceWindows { blocks }
    }

    /// Windows over a [`Trace`]'s events.
    pub fn of_trace(trace: &'t Trace) -> Self {
        Self::new(trace.blocks())
    }
}

impl WindowedBlockSource for SliceWindows<'_> {
    type Window<'a>
        = TraceBlocks<'a>
    where
        Self: 'a;

    fn open_window(&self, start: u64, len: u64) -> TraceBlocks<'_> {
        let n = self.blocks.len();
        let s = (start.min(n as u64)) as usize;
        let e = ((start + len).min(n as u64)) as usize;
        TraceBlocks::new(&self.blocks[s..e])
    }

    fn total_events(&self) -> u64 {
        self.blocks.len() as u64
    }
}

/// [`WindowedBlockSource`] that re-generates windows from a deterministic
/// [`Walker`] instead of storing the trace.
///
/// Construction does one sequential *generation* pass (no simulation) over
/// the first `events` blocks, keeping a cloned walker checkpoint every
/// `stride` events. `open_window` then clones the nearest checkpoint at or
/// before the window start and fast-forwards the remainder — at most
/// `stride - 1` generator steps — so workers can open windows concurrently
/// with bounded redo work and O(`events / stride`) resident state.
///
/// # Examples
///
/// ```
/// use ispy_sim::shard::{GenWindows, WindowedBlockSource};
/// use ispy_trace::{BlockSource, Walker, apps};
///
/// let model = apps::tomcat().scaled_down(40);
/// let program = model.generate();
/// let reference = program.record_trace(model.default_input(), 3_000);
/// let windows = GenWindows::new(Walker::new(&program, model.default_input()), 3_000, 1_024);
/// let mut got = Vec::new();
/// let mut w = windows.open_window(1_500, 700);
/// while let Some(chunk) = w.next_chunk().unwrap() {
///     got.extend_from_slice(chunk);
/// }
/// assert_eq!(got, &reference.blocks()[1_500..2_200]);
/// ```
#[derive(Debug, Clone)]
pub struct GenWindows<'p> {
    /// `checkpoints[i]` is the walker state exactly `i * stride` events in.
    checkpoints: Vec<Walker<'p>>,
    stride: u64,
    events: u64,
}

impl<'p> GenWindows<'p> {
    /// Checkpoints `walker` every `stride` events across the first `events`
    /// blocks it yields.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn new(walker: Walker<'p>, events: u64, stride: u64) -> Self {
        assert!(stride > 0, "checkpoint stride must be positive");
        let mut checkpoints = vec![walker.clone()];
        let mut walker = walker;
        let mut pos = 0u64;
        while pos + stride < events {
            for _ in 0..stride {
                walker.next();
            }
            pos += stride;
            checkpoints.push(walker.clone());
        }
        GenWindows { checkpoints, stride, events }
    }

    /// Checkpoints aligned to a shard configuration's window starts, so
    /// window bodies fast-forward zero events (only warmup prefixes redo
    /// up to `warmup_blocks` generator steps).
    pub fn for_shards(walker: Walker<'p>, events: u64, shard: &ShardConfig) -> Self {
        Self::new(walker, events, shard.window_blocks.max(1) as u64)
    }
}

impl<'p> WindowedBlockSource for GenWindows<'p> {
    type Window<'a>
        = WalkerSource<'p>
    where
        Self: 'a;

    fn open_window(&self, start: u64, len: u64) -> WalkerSource<'p> {
        let start = start.min(self.events);
        let end = (start + len).min(self.events);
        let ck = ((start / self.stride) as usize).min(self.checkpoints.len() - 1);
        let mut walker = self.checkpoints[ck].clone();
        for _ in (ck as u64 * self.stride)..start {
            walker.next();
        }
        WalkerSource::new(walker, end - start)
    }

    fn total_events(&self) -> u64 {
        self.events
    }
}

/// Feeds every chunk of `source` through `eng` with absolute trace indices.
fn replay_source<S: BlockSource>(
    eng: &mut Engine<'_>,
    mut source: S,
    mut idx0: usize,
) -> Result<(), ArtifactError> {
    while let Some(chunk) = source.next_chunk()? {
        eng.replay(chunk, idx0);
        idx0 += chunk.len();
    }
    Ok(())
}

/// Replays any [`WindowedBlockSource`] in parallel time slices and returns
/// the stitched-up counters; see the [module docs](self) for the windowing
/// semantics. Pass a [`SliceWindows`] for a materialized trace, a
/// [`GenWindows`] for one too large to materialize: a generator-backed
/// source over the same event sequence reproduces the slice-backed results
/// byte-for-byte (pinned by the `streaming` suite).
///
/// `outcomes` works like [`RunOptions::outcomes`](crate::RunOptions): each
/// window attributes its events to a private ledger and the per-window
/// deltas are merged into the caller's. Observers and hardware prefetchers
/// are not supported here — both assume they see the whole sequential
/// stream.
///
/// # Errors
///
/// Propagates the first [`ArtifactError`] any window's stream raises (in
/// window order). In-memory and generator sources never fail.
///
/// # Panics
///
/// Panics if `window_blocks` is zero or the source yields blocks outside
/// `program`.
///
/// # Examples
///
/// ```
/// use ispy_sim::{run, simulate_sharded_source, RunOptions, ShardConfig, SimConfig, SliceWindows};
/// use ispy_trace::apps;
///
/// let model = apps::tomcat().scaled_down(40);
/// let program = model.generate();
/// let trace = program.record_trace(model.default_input(), 5_000);
/// let cfg = SimConfig::default();
/// // One window covering the whole trace reproduces `run` exactly.
/// let whole = ShardConfig { window_blocks: 5_000, warmup_blocks: 0, shards: 2 };
/// let windows = SliceWindows::of_trace(&trace);
/// let sharded = simulate_sharded_source(&program, &windows, &cfg, None, &whole, None).unwrap();
/// assert_eq!(sharded, run(&program, &trace, &cfg, RunOptions::default()));
/// ```
pub fn simulate_sharded_source<W: WindowedBlockSource>(
    program: &Program,
    source: &W,
    cfg: &SimConfig,
    injections: Option<&InjectionMap>,
    shard: &ShardConfig,
    outcomes: Option<&mut OutcomeLedger>,
) -> Result<SimResult, ArtifactError> {
    assert!(shard.window_blocks > 0, "window_blocks must be positive");
    let compiled = Arc::new(compile_plan(program, injections));
    let n = source.total_events();
    let window = shard.window_blocks as u64;
    let windows = (n.div_ceil(window).max(1)) as usize;
    let want_ledger = outcomes.is_some();
    let ledger_cap = outcomes.as_ref().map_or(0, |l| l.per_injection.len());

    let deltas = ispy_parallel::par_collect_bounded(shard.resolved_shards(), windows, |w| {
        let start = w as u64 * window;
        let end = (start + window).min(n);
        let warm_start = start.saturating_sub(shard.warmup_blocks as u64);
        let mut local = want_ledger.then(|| OutcomeLedger::with_capacity(ledger_cap));
        let mut eng = Engine::new(
            program,
            cfg,
            Arc::clone(&compiled),
            None,
            None,
            local.as_mut(),
            false,
            false,
        );
        replay_source(
            &mut eng,
            source.open_window(warm_start, start - warm_start),
            warm_start as usize,
        )?;
        let res_before = eng.result_so_far();
        let led_before = eng.ledger_snapshot();
        replay_source(&mut eng, source.open_window(start, end - start), start as usize)?;
        let res_after = eng.result_so_far();
        let led_after = eng.ledger_snapshot();
        let led_delta = match (led_after, led_before) {
            (Some(after), Some(before)) => Some(after.delta_since(&before)),
            _ => None,
        };
        Ok((res_after.delta_since(&res_before), led_delta))
    });

    let mut total = SimResult::default();
    let mut ledger_out = outcomes;
    for window_result in deltas {
        let (res, led) = window_result?;
        total.accumulate(&res);
        if let (Some(out), Some(led)) = (ledger_out.as_deref_mut(), led.as_ref()) {
            out.merge_add(led);
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, RunOptions};
    use ispy_isa::{InjectionMap, PrefetchOp};
    use ispy_trace::{apps, Line};

    /// Sharded replay of a materialized trace.
    fn simulate_sharded(
        program: &Program,
        trace: &Trace,
        cfg: &SimConfig,
        injections: Option<&InjectionMap>,
        shard: &ShardConfig,
        outcomes: Option<&mut OutcomeLedger>,
    ) -> SimResult {
        let windows = SliceWindows::of_trace(trace);
        simulate_sharded_source(program, &windows, cfg, injections, shard, outcomes).unwrap()
    }

    fn workload() -> (Program, Trace, InjectionMap) {
        let model = apps::cassandra().scaled_down(30);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 20_000);
        let mut map = InjectionMap::new();
        for (i, b) in program.blocks().iter().enumerate().step_by(3) {
            map.push(
                ispy_trace::BlockId(i as u32),
                PrefetchOp::Plain { target: Line::new(b.first_line().raw() + 1) },
            );
        }
        (program, trace, map)
    }

    #[test]
    fn whole_trace_window_matches_run_exactly() {
        let (p, t, map) = workload();
        let cfg = SimConfig::default();
        let direct = run(&p, &t, &cfg, RunOptions { injections: Some(&map), ..Default::default() });
        let shard = ShardConfig { window_blocks: t.blocks().len(), warmup_blocks: 0, shards: 4 };
        let sharded = simulate_sharded(&p, &t, &cfg, Some(&map), &shard, None);
        assert_eq!(sharded, direct);
    }

    #[test]
    fn shard_count_does_not_change_the_result() {
        let (p, t, map) = workload();
        let cfg = SimConfig::default();
        let base = ShardConfig { window_blocks: 4_096, warmup_blocks: 1_024, shards: 1 };
        let mut led_ref = OutcomeLedger::default();
        let reference = simulate_sharded(&p, &t, &cfg, Some(&map), &base, Some(&mut led_ref));
        for shards in [2, 3, 8] {
            let mut led = OutcomeLedger::default();
            let got = simulate_sharded(
                &p,
                &t,
                &cfg,
                Some(&map),
                &ShardConfig { shards, ..base },
                Some(&mut led),
            );
            assert_eq!(got, reference, "shards={shards}");
            assert_eq!(led, led_ref, "ledger diverged at shards={shards}");
        }
    }

    #[test]
    fn windowing_approximates_the_sequential_run() {
        let (p, t, map) = workload();
        let cfg = SimConfig::default();
        let direct = run(&p, &t, &cfg, RunOptions { injections: Some(&map), ..Default::default() });
        let shard = ShardConfig { window_blocks: 8_192, warmup_blocks: 8_192, shards: 0 };
        let sharded = simulate_sharded(&p, &t, &cfg, Some(&map), &shard, None);
        // Block/instruction counts are exact by construction; timing-derived
        // counters drift only as far as cold-start error at window seams
        // (measured ~1.6% here; shrinking warmup to 2k raises it past 19%).
        assert_eq!(sharded.blocks, direct.blocks);
        assert_eq!(sharded.instrs, direct.instrs);
        assert_eq!(sharded.d_accesses, direct.d_accesses);
        let drift = (sharded.cycles as f64 - direct.cycles as f64).abs() / direct.cycles as f64;
        assert!(drift < 0.05, "cycle drift {drift:.4} exceeds 5%");
    }

    #[test]
    fn generator_windows_match_materialized_sharding_exactly() {
        let model = apps::cassandra().scaled_down(30);
        let program = model.generate();
        let events = 20_000u64;
        let trace = program.record_trace(model.default_input(), events as usize);
        let cfg = SimConfig::default();
        let shard = ShardConfig { window_blocks: 4_096, warmup_blocks: 1_024, shards: 4 };
        let materialized = simulate_sharded(&program, &trace, &cfg, None, &shard, None);
        let gen =
            GenWindows::for_shards(Walker::new(&program, model.default_input()), events, &shard);
        let regenerated =
            simulate_sharded_source(&program, &gen, &cfg, None, &shard, None).unwrap();
        assert_eq!(regenerated, materialized);
    }

    #[test]
    fn gen_windows_misaligned_stride_still_matches() {
        // Stride deliberately coprime-ish with the window size, so every
        // open_window fast-forwards from mid-checkpoint.
        let model = apps::drupal().scaled_down(30);
        let program = model.generate();
        let events = 10_000u64;
        let trace = program.record_trace(model.default_input(), events as usize);
        let cfg = SimConfig::default();
        let shard = ShardConfig { window_blocks: 3_000, warmup_blocks: 500, shards: 2 };
        let materialized = simulate_sharded(&program, &trace, &cfg, None, &shard, None);
        let gen = GenWindows::new(Walker::new(&program, model.default_input()), events, 777);
        let regenerated =
            simulate_sharded_source(&program, &gen, &cfg, None, &shard, None).unwrap();
        assert_eq!(regenerated, materialized);
    }

    #[test]
    fn open_window_clamps_to_total_events() {
        let model = apps::tomcat().scaled_down(40);
        let program = model.generate();
        let gen = GenWindows::new(Walker::new(&program, model.default_input()), 1_000, 256);
        let mut past_end = gen.open_window(2_000, 100);
        assert_eq!(past_end.next_chunk().unwrap(), None);
        let mut tail = gen.open_window(900, 1_000);
        let mut got = 0usize;
        while let Some(chunk) = tail.next_chunk().unwrap() {
            got += chunk.len();
        }
        assert_eq!(got, 100);
    }

    #[test]
    #[should_panic(expected = "window_blocks must be positive")]
    fn zero_window_panics() {
        let (p, t, _) = workload();
        let shard = ShardConfig { window_blocks: 0, warmup_blocks: 0, shards: 1 };
        let _ = simulate_sharded(&p, &t, &SimConfig::default(), None, &shard, None);
    }

    #[test]
    fn empty_trace_is_defaultish() {
        let model = apps::tomcat().scaled_down(40);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 0);
        let r = simulate_sharded(
            &program,
            &trace,
            &SimConfig::default(),
            None,
            &ShardConfig::default(),
            None,
        );
        assert_eq!(r.blocks, 0);
        assert_eq!(r.cycles, 0);
    }
}
