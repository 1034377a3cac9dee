//! Streaming block sources: the abstraction that lets the simulator consume
//! traces of unbounded length in bounded memory.
//!
//! Every consumer of a trace used to take `&[BlockId]`, which forces the
//! whole event sequence to exist in RAM at once. [`BlockSource`] replaces
//! that with a pull-based chunk protocol: the consumer repeatedly asks for
//! the next run of blocks and processes it before asking again, so only one
//! chunk is live at a time. Three producers cover the pipeline:
//!
//! * [`TraceBlocks`] — a zero-cost adapter over an already-materialized
//!   slice or [`Trace`]; by default it hands the whole remaining slice out
//!   as a single borrow (no copy, no allocation).
//! * [`WalkerSource`] — drives the deterministic [`Walker`] executor, so any
//!   app model can synthesize an arbitrarily long trace from a seed without
//!   ever materializing it.
//! * `TraceEventStream` (in [`artifact`](crate::artifact)) — decodes the
//!   event sections of an `.itrace` file chunk by chunk.
//!
//! **Determinism contract:** a source must yield the same concatenated
//! block sequence regardless of how the consumer's pulls are sized, and the
//! engine's per-block semantics are chunk-agnostic — so replaying any source
//! is byte-identical to materializing it first and replaying the `Vec`. The
//! `streaming` integration suite pins this for every app and chunk size.

use crate::block::BlockId;
use crate::exec::Walker;
use crate::trace::Trace;
use ispy_artifact::ArtifactError;

/// Default events per chunk for sources that buffer (64 Ki blocks ≈ 256 KiB
/// of ids: large enough to amortize per-chunk overhead, small enough to stay
/// cache-resident and keep peak memory flat).
pub const DEFAULT_CHUNK_EVENTS: usize = 64 * 1024;

/// A pull-based stream of basic-block events.
///
/// Implementors hand out chunks of consecutive trace events until the trace
/// ends (`Ok(None)`). The chunk boundaries are an implementation detail —
/// consumers must not attach meaning to them — and each returned slice is
/// only valid until the next call (it may alias an internal buffer).
pub trait BlockSource {
    /// Returns the next run of block events, `Ok(None)` at end of trace.
    ///
    /// # Errors
    ///
    /// Decoding sources surface corruption/truncation as typed
    /// [`ArtifactError`]s; in-memory and generator sources never fail.
    fn next_chunk(&mut self) -> Result<Option<&[BlockId]>, ArtifactError>;
}

impl<S: BlockSource + ?Sized> BlockSource for &mut S {
    fn next_chunk(&mut self) -> Result<Option<&[BlockId]>, ArtifactError> {
        (**self).next_chunk()
    }
}

/// A [`BlockSource`] over an already-materialized block slice.
///
/// With the default (unchunked) construction the whole remaining slice is
/// returned from the first pull — a pure borrow, so streaming over a
/// materialized trace costs exactly nothing versus passing the slice.
/// [`TraceBlocks::with_chunk`] slices it into fixed-size pulls instead,
/// which exists for the chunk-invariance tests and for consumers that want
/// bounded per-pull work.
///
/// # Examples
///
/// ```
/// use ispy_trace::source::{BlockSource, TraceBlocks};
/// use ispy_trace::BlockId;
///
/// let blocks = [BlockId(0), BlockId(1), BlockId(2)];
/// let mut s = TraceBlocks::with_chunk(&blocks, 2);
/// assert_eq!(s.next_chunk().unwrap(), Some(&blocks[..2]));
/// assert_eq!(s.next_chunk().unwrap(), Some(&blocks[2..]));
/// assert_eq!(s.next_chunk().unwrap(), None);
/// ```
#[derive(Debug, Clone)]
pub struct TraceBlocks<'t> {
    blocks: &'t [BlockId],
    pos: usize,
    /// Events per pull; `0` means "everything remaining in one pull".
    chunk: usize,
}

impl<'t> TraceBlocks<'t> {
    /// Streams `blocks` as a single chunk (zero-cost adapter).
    pub fn new(blocks: &'t [BlockId]) -> Self {
        TraceBlocks { blocks, pos: 0, chunk: 0 }
    }

    /// Streams a [`Trace`]'s events as a single chunk.
    pub fn of_trace(trace: &'t Trace) -> Self {
        Self::new(trace.blocks())
    }

    /// Streams `blocks` in pulls of at most `chunk` events.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn with_chunk(blocks: &'t [BlockId], chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        TraceBlocks { blocks, pos: 0, chunk }
    }
}

impl BlockSource for TraceBlocks<'_> {
    fn next_chunk(&mut self) -> Result<Option<&[BlockId]>, ArtifactError> {
        if self.pos >= self.blocks.len() {
            return Ok(None);
        }
        let take = if self.chunk == 0 {
            self.blocks.len() - self.pos
        } else {
            self.chunk.min(self.blocks.len() - self.pos)
        };
        let out = &self.blocks[self.pos..self.pos + take];
        self.pos += take;
        Ok(Some(out))
    }
}

/// A [`BlockSource`] that synthesizes its events from a [`Walker`].
///
/// This is how unbounded traces exist without RAM: the nine app models are
/// deterministic generators, so "a 100-million-block cassandra trace" is
/// fully described by (program, input seed, length) and can be produced —
/// and re-produced, identically — one chunk at a time. Cloning the source
/// checkpoints the generator: the clone resumes from the same position.
///
/// # Examples
///
/// ```
/// use ispy_trace::source::{BlockSource, WalkerSource};
/// use ispy_trace::{apps, Walker};
///
/// let model = apps::tomcat();
/// let program = model.generate();
/// let reference = program.record_trace(model.default_input(), 1_000);
/// let mut src = WalkerSource::new(Walker::new(&program, model.default_input()), 1_000);
/// let mut streamed = Vec::new();
/// while let Some(chunk) = src.next_chunk().unwrap() {
///     streamed.extend_from_slice(chunk);
/// }
/// assert_eq!(streamed, reference.blocks());
/// ```
#[derive(Debug, Clone)]
pub struct WalkerSource<'p> {
    walker: Walker<'p>,
    remaining: u64,
    chunk: usize,
    buf: Vec<BlockId>,
}

impl<'p> WalkerSource<'p> {
    /// Streams the next `events` blocks of `walker` in default-size chunks.
    pub fn new(walker: Walker<'p>, events: u64) -> Self {
        Self::with_chunk(walker, events, DEFAULT_CHUNK_EVENTS)
    }

    /// Streams the next `events` blocks of `walker` in pulls of at most
    /// `chunk` events.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn with_chunk(walker: Walker<'p>, events: u64, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        WalkerSource { walker, remaining: events, chunk, buf: Vec::new() }
    }

    /// Events this source will still yield.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl BlockSource for WalkerSource<'_> {
    fn next_chunk(&mut self) -> Result<Option<&[BlockId]>, ArtifactError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let take = u64::min(self.chunk as u64, self.remaining) as usize;
        self.buf.clear();
        self.buf.extend(self.walker.by_ref().take(take));
        self.remaining -= self.buf.len() as u64;
        Ok(Some(&self.buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;

    fn drain<S: BlockSource>(mut s: S) -> Vec<BlockId> {
        let mut out = Vec::new();
        let mut pulls = 0usize;
        while let Some(chunk) = s.next_chunk().unwrap() {
            assert!(!chunk.is_empty(), "sources must not yield empty chunks");
            out.extend_from_slice(chunk);
            pulls += 1;
            assert!(pulls <= out.len() + 1, "runaway pull loop");
        }
        out
    }

    #[test]
    fn trace_blocks_single_pull_is_the_whole_slice() {
        let blocks: Vec<BlockId> = (0..100u32).map(BlockId).collect();
        let mut s = TraceBlocks::new(&blocks);
        assert_eq!(s.next_chunk().unwrap(), Some(blocks.as_slice()));
        assert_eq!(s.next_chunk().unwrap(), None);
    }

    #[test]
    fn trace_blocks_chunking_preserves_the_sequence() {
        let blocks: Vec<BlockId> = (0..1000u32).map(|i| BlockId(i % 37)).collect();
        for chunk in [1, 7, 64, 999, 1000, 5000] {
            assert_eq!(drain(TraceBlocks::with_chunk(&blocks, chunk)), blocks, "chunk {chunk}");
        }
    }

    #[test]
    fn empty_slice_yields_nothing() {
        let mut s = TraceBlocks::new(&[]);
        assert_eq!(s.next_chunk().unwrap(), None);
        let mut s = TraceBlocks::with_chunk(&[], 8);
        assert_eq!(s.next_chunk().unwrap(), None);
    }

    #[test]
    fn walker_source_matches_record_trace_for_any_chunk() {
        let model = apps::kafka().scaled_down(40);
        let program = model.generate();
        let reference = program.record_trace(model.default_input(), 5_000);
        for chunk in [1, 13, 4096, 5_000, 1 << 20] {
            let walker = Walker::new(&program, model.default_input());
            let got = drain(WalkerSource::with_chunk(walker, 5_000, chunk));
            assert_eq!(got, reference.blocks(), "chunk {chunk}");
        }
    }

    #[test]
    fn cloned_walker_source_resumes_identically() {
        let model = apps::verilator().scaled_down(40);
        let program = model.generate();
        let mut src =
            WalkerSource::with_chunk(Walker::new(&program, model.default_input()), 4_000, 512);
        // Consume one chunk, checkpoint, then confirm clone == original.
        src.next_chunk().unwrap().unwrap();
        let checkpoint = src.clone();
        assert_eq!(drain(checkpoint), drain(src));
    }

    #[test]
    fn skipped_walker_resumes_at_the_exact_position() {
        let model = apps::drupal().scaled_down(40);
        let program = model.generate();
        let reference = program.record_trace(model.default_input(), 3_000);
        let mut walker = Walker::new(&program, model.default_input());
        for _ in 0..1_234 {
            walker.next();
        }
        let src = WalkerSource::new(walker, 3_000 - 1_234);
        assert_eq!(drain(src), &reference.blocks()[1_234..]);
    }

    #[test]
    fn mut_ref_forwards() {
        let blocks: Vec<BlockId> = (0..10u32).map(BlockId).collect();
        let mut s = TraceBlocks::with_chunk(&blocks, 4);
        let r: &mut TraceBlocks<'_> = &mut s;
        assert_eq!(drain(r), blocks);
    }
}
