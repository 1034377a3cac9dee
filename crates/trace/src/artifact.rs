//! The `.itrace` artifact codec: a durable recording of a program + trace.
//!
//! A recording captures everything the rest of the pipeline needs to replay
//! an execution bit-for-bit: the full static program (blocks, exits,
//! functions, ownership, request paths, and the generator knobs the
//! simulator's D-side model reads) and the dynamic block-event sequence.
//! Replaying a loaded recording produces *byte-identical* results to the
//! in-memory pipeline because every field round-trips exactly — `f64`s as
//! raw bit patterns, integers verbatim.
//!
//! The codec lives here rather than in `ispy-artifact` so the container
//! crate stays dependency-free; this module owns the mapping between
//! [`Program`]/[`Trace`] and container sections.
//!
//! Writers emit one trace encoding, the **framed** form: the events are
//! split into fixed-size frame sections, each an independent delta stream,
//! so arbitrarily long traces are written ([`RecordingWriter`]) and read
//! ([`open_recording_stream`]) in bounded memory. [`recording_to_bytes`] and
//! [`write_recording`] are thin wrappers over the writer, and
//! [`recording_from_bytes`] and [`read_recording`] drain the stream, so a
//! recording has exactly one encoder and one decoder. Files written before
//! the framed form existed store all events in one **monolithic** section;
//! the decoder still reads them (whole, once their CRC verifies). See
//! `docs/STREAMING.md` for the framing contract.
//!
//! # Examples
//!
//! ```
//! use ispy_trace::{apps, artifact};
//!
//! let model = apps::kafka().scaled_down(40);
//! let program = model.generate();
//! let trace = program.record_trace(model.default_input(), 1_000);
//! let bytes = artifact::recording_to_bytes(&program, &trace);
//! let (program2, trace2) = artifact::recording_from_bytes(&bytes).unwrap();
//! assert_eq!(program2.name(), program.name());
//! assert_eq!(trace2, trace);
//! ```

use crate::addr::Addr;
use crate::block::{BasicBlock, BlockId};
use crate::program::{BlockExit, FuncId, Function, Program};
use crate::source::BlockSource;
use crate::trace::Trace;
use ispy_artifact::{
    narrow, ArtifactError, ArtifactKind, SectionReader, SectionWriter, StreamReader, StreamWriter,
};
use std::io::{Cursor, Read, Seek, Write};
use std::path::Path;

/// Program-level metadata: name, generator knobs, table sizes.
const SEC_META: u32 = 1;
/// Per-block geometry: start address (delta), bytes, instrs, data accesses.
const SEC_BLOCKS: u32 = 2;
/// Per-block control-flow exits, tagged.
const SEC_EXITS: u32 = 3;
/// Function table: entry block, first block, block count.
const SEC_FUNCS: u32 = 4;
/// Owning function per block (delta stream).
const SEC_OWNER: u32 = 5;
/// Request paths: one function sequence per request type.
const SEC_REQUEST_PATHS: u32 = 6;
/// The dynamic trace, monolithic form: name, event count and the full
/// block-event sequence (delta stream). Read-only: no writer emits it any
/// more, but recordings made before the framed form still decode.
const SEC_TRACE: u32 = 7;
/// The dynamic trace, framed form: just the trace name. The events follow
/// as frame sections. Written by [`RecordingWriter`].
const SEC_TRACE_HEAD: u32 = 8;
/// First frame-section id; frame `i` is `SEC_FRAME_BASE + i`. Each frame is
/// an independent delta stream (base restarts at 0) of consecutive events,
/// so a frame decodes without any state from earlier frames.
const SEC_FRAME_BASE: u32 = 0x4000_0000;

/// Events per frame section written by [`RecordingWriter`] (64 Ki events ≈
/// 64–320 KiB encoded: the unit of buffering on both ends of the stream).
pub const FRAME_EVENTS: usize = 64 * 1024;

/// Exit tag values in [`SEC_EXITS`].
const EXIT_BRANCH: u8 = 0;
const EXIT_CALL: u8 = 1;
const EXIT_RETURN: u8 = 2;

/// Builds the six program sections (ids 1–6, in id order).
fn program_sections(program: &Program) -> Vec<SectionWriter> {
    let mut meta = SectionWriter::new(SEC_META);
    meta.put_str(program.name());
    meta.put_varint(program.data_footprint_lines());
    meta.put_f64(program.branch_determinism());
    meta.put_varint(u64::from(program.request_variants()));
    meta.put_varint(program.num_blocks() as u64);
    meta.put_varint(program.num_funcs() as u64);

    let mut blocks = SectionWriter::new(SEC_BLOCKS);
    for b in program.blocks() {
        blocks.put_delta(b.start().raw());
        blocks.put_varint(u64::from(b.bytes()));
        blocks.put_varint(u64::from(b.instrs()));
        blocks.put_varint(u64::from(b.data_accesses()));
    }

    let mut exits = SectionWriter::new(SEC_EXITS);
    for i in 0..program.num_blocks() {
        match program.exit(BlockId(i as u32)) {
            BlockExit::Branch(targets) => {
                exits.put_u8(EXIT_BRANCH);
                exits.put_varint(targets.len() as u64);
                for &(t, weight) in targets {
                    exits.put_varint(u64::from(t.0));
                    exits.put_f64(weight);
                }
            }
            BlockExit::Call { callee, ret } => {
                exits.put_u8(EXIT_CALL);
                exits.put_varint(u64::from(callee.0));
                exits.put_varint(u64::from(ret.0));
            }
            BlockExit::Return => exits.put_u8(EXIT_RETURN),
        }
    }

    let mut funcs = SectionWriter::new(SEC_FUNCS);
    for i in 0..program.num_funcs() {
        let f = program.func(FuncId(i as u32));
        let range = f.block_range();
        funcs.put_varint(u64::from(f.entry().0));
        funcs.put_varint(u64::from(range.start));
        funcs.put_varint(u64::from(range.end - range.start));
    }

    let mut owner = SectionWriter::new(SEC_OWNER);
    for i in 0..program.num_blocks() {
        owner.put_delta(u64::from(program.owner_of(BlockId(i as u32)).0));
    }

    let mut paths = SectionWriter::new(SEC_REQUEST_PATHS);
    paths.put_varint(program.request_paths().len() as u64);
    for path in program.request_paths() {
        paths.put_varint(path.len() as u64);
        for f in path {
            paths.put_varint(u64::from(f.0));
        }
    }

    vec![meta, blocks, exits, funcs, owner, paths]
}

/// Serializes a recording to artifact bytes (framed form).
///
/// # Panics
///
/// Panics if the trace references a block outside `program`, as
/// [`RecordingWriter::push`] does.
pub fn recording_to_bytes(program: &Program, trace: &Trace) -> Vec<u8> {
    RecordingWriter::new(Cursor::new(Vec::new()), program, trace.name())
        .and_then(|w| w.write_all(trace))
        .expect("writing to memory cannot fail")
        .into_inner()
}

/// Writes a recording to `path` (conventionally `*.itrace`), creating parent
/// directories as needed.
///
/// # Errors
///
/// [`ArtifactError::Io`] on filesystem failure.
///
/// # Panics
///
/// As [`recording_to_bytes`].
pub fn write_recording(program: &Program, trace: &Trace, path: &Path) -> Result<(), ArtifactError> {
    RecordingWriter::create(path, program, trace.name())?.write_all(trace)?;
    Ok(())
}

/// Range-checked conversion of a raw event to a [`BlockId`].
fn in_range_block(raw: u64, num_blocks: u64, what: &'static str) -> Result<BlockId, ArtifactError> {
    if raw < num_blocks {
        Ok(BlockId(raw as u32))
    } else {
        Err(ArtifactError::malformed(what, format!("block id {raw} out of range")))
    }
}

/// Decodes the six program section payloads (ids 1–6, in id order).
fn decode_program(payloads: &[Vec<u8>; 6]) -> Result<Program, ArtifactError> {
    let section = |id: u32| SectionReader::new(id, &payloads[(id - SEC_META) as usize]);
    let mut meta = section(SEC_META);
    let name = meta.take_str()?;
    let data_footprint_lines = meta.take_varint()?;
    let branch_determinism = meta.take_f64()?;
    let request_variants: u16 = narrow(meta.take_varint()?, "request variants")?;
    let num_blocks: usize = narrow(meta.take_varint()?, "block count")?;
    let num_funcs: usize = narrow(meta.take_varint()?, "function count")?;
    meta.finish()?;
    if !(0.0..=1.0).contains(&branch_determinism) {
        return Err(ArtifactError::malformed(
            "branch determinism",
            format!("{branch_determinism} outside [0, 1]"),
        ));
    }
    if data_footprint_lines == 0 || request_variants == 0 {
        return Err(ArtifactError::malformed("program meta", "zero footprint or variants"));
    }

    let mut blocks_sec = section(SEC_BLOCKS);
    let mut blocks = Vec::with_capacity(num_blocks);
    for _ in 0..num_blocks {
        let start = blocks_sec.take_delta()?;
        let bytes_: u32 = narrow(blocks_sec.take_varint()?, "block bytes")?;
        let instrs: u16 = narrow(blocks_sec.take_varint()?, "block instrs")?;
        let data_accesses: u8 = narrow(blocks_sec.take_varint()?, "block data accesses")?;
        if bytes_ == 0 || instrs == 0 {
            return Err(ArtifactError::malformed("block", "zero bytes or instructions"));
        }
        blocks.push(BasicBlock::new(Addr::new(start), bytes_, instrs, data_accesses));
    }
    blocks_sec.finish()?;

    let in_blocks = |raw: u64, what: &'static str| -> Result<BlockId, ArtifactError> {
        in_range_block(raw, num_blocks as u64, what)
    };
    let in_funcs = |raw: u64, what: &'static str| -> Result<FuncId, ArtifactError> {
        if (raw as usize) < num_funcs {
            Ok(FuncId(raw as u32))
        } else {
            Err(ArtifactError::malformed(what, format!("function id {raw} out of range")))
        }
    };

    let mut exits_sec = section(SEC_EXITS);
    let mut exits = Vec::with_capacity(num_blocks);
    for _ in 0..num_blocks {
        exits.push(match exits_sec.take_u8()? {
            EXIT_BRANCH => {
                let n: usize = narrow(exits_sec.take_varint()?, "branch targets")?;
                let mut targets = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let t = in_blocks(exits_sec.take_varint()?, "branch target")?;
                    targets.push((t, exits_sec.take_f64()?));
                }
                BlockExit::Branch(targets)
            }
            EXIT_CALL => {
                let callee = in_funcs(exits_sec.take_varint()?, "call callee")?;
                let ret = in_blocks(exits_sec.take_varint()?, "call return")?;
                BlockExit::Call { callee, ret }
            }
            EXIT_RETURN => BlockExit::Return,
            t => return Err(ArtifactError::malformed("exit tag", format!("unknown tag {t}"))),
        });
    }
    exits_sec.finish()?;

    let mut funcs_sec = section(SEC_FUNCS);
    let mut funcs = Vec::with_capacity(num_funcs);
    for _ in 0..num_funcs {
        let entry = in_blocks(funcs_sec.take_varint()?, "function entry")?;
        let first: u32 = narrow(funcs_sec.take_varint()?, "function first block")?;
        let count: u32 = narrow(funcs_sec.take_varint()?, "function block count")?;
        if u64::from(first) + u64::from(count) > num_blocks as u64 {
            return Err(ArtifactError::malformed("function", "block range out of bounds"));
        }
        funcs.push(Function::new(entry, first, count));
    }
    funcs_sec.finish()?;

    let mut owner_sec = section(SEC_OWNER);
    let mut owner = Vec::with_capacity(num_blocks);
    for _ in 0..num_blocks {
        owner.push(in_funcs(owner_sec.take_delta()?, "block owner")?);
    }
    owner_sec.finish()?;

    let mut paths_sec = section(SEC_REQUEST_PATHS);
    let n_paths: usize = narrow(paths_sec.take_varint()?, "request path count")?;
    let mut request_paths = Vec::with_capacity(n_paths.min(1 << 16));
    for _ in 0..n_paths {
        let len: usize = narrow(paths_sec.take_varint()?, "request path length")?;
        let mut path = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            path.push(in_funcs(paths_sec.take_varint()?, "request path function")?);
        }
        request_paths.push(path);
    }
    paths_sec.finish()?;

    let mut program = Program::new(name, blocks, exits, funcs, owner, request_paths);
    program.set_data_footprint_lines(data_footprint_lines);
    program.set_branch_determinism(branch_determinism);
    program.set_request_variants(request_variants);
    program
        .validate()
        .map_err(|e| ArtifactError::malformed("program invariants", e.to_string()))?;
    Ok(program)
}

/// Decodes a recording from artifact bytes by draining
/// [`open_recording_stream`], so it accepts exactly what the streaming
/// decoder accepts — both trace forms, every check.
///
/// # Errors
///
/// Any container-level defect or payload-level inconsistency maps to a
/// typed [`ArtifactError`].
pub fn recording_from_bytes(bytes: &[u8]) -> Result<(Program, Trace), ArtifactError> {
    let (program, stream) = open_recording_stream(bytes)?;
    Ok((program, stream.into_trace()?))
}

/// Reads a recording from `path` by draining [`open_recording_file`].
///
/// # Errors
///
/// [`ArtifactError::Io`] on filesystem failure, otherwise as
/// [`recording_from_bytes`].
pub fn read_recording(path: &Path) -> Result<(Program, Trace), ArtifactError> {
    let (program, stream) = open_recording_file(path)?;
    Ok((program, stream.into_trace()?))
}

/// Streams a recording to disk frame by frame, in bounded memory.
///
/// The program sections and a `SEC_TRACE_HEAD` section (just the trace
/// name — the event count is unknown up front) are written immediately;
/// events pushed via [`push`](RecordingWriter::push) are buffered into
/// [`FRAME_EVENTS`]-sized frame sections and flushed as they fill, so peak
/// memory is one frame regardless of trace length. This is the only
/// encoder of trace events.
///
/// # Examples
///
/// ```
/// use std::io::Cursor;
/// use ispy_trace::{apps, artifact};
///
/// let model = apps::kafka().scaled_down(40);
/// let program = model.generate();
/// let trace = program.record_trace(model.default_input(), 1_000);
///
/// let mut w = artifact::RecordingWriter::new(
///     Cursor::new(Vec::new()), &program, trace.name()).unwrap();
/// w.push(trace.blocks()).unwrap();
/// let bytes = w.finish().unwrap().into_inner();
///
/// let (_, trace2) = artifact::recording_from_bytes(&bytes).unwrap();
/// assert_eq!(trace2, trace);
/// ```
#[derive(Debug)]
pub struct RecordingWriter<W: Write + Seek> {
    stream: StreamWriter<W>,
    num_blocks: u64,
    frame: Vec<BlockId>,
    frames_written: u32,
    events: u64,
}

impl<W: Write + Seek> RecordingWriter<W> {
    /// Starts a streamed recording of `program` on `sink`, writing the
    /// program sections and trace header immediately.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] if the sink rejects the writes.
    pub fn new(sink: W, program: &Program, trace_name: &str) -> Result<Self, ArtifactError> {
        let mut stream = StreamWriter::new(sink, ArtifactKind::Trace)?;
        for s in program_sections(program) {
            stream.write_section(s)?;
        }
        let mut head = SectionWriter::new(SEC_TRACE_HEAD);
        head.put_str(trace_name);
        stream.write_section(head)?;
        Ok(RecordingWriter {
            stream,
            num_blocks: program.num_blocks() as u64,
            frame: Vec::with_capacity(FRAME_EVENTS),
            frames_written: 0,
            events: 0,
        })
    }

    /// Appends `blocks` to the trace, flushing full frames to the sink.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] if a frame flush fails.
    ///
    /// # Panics
    ///
    /// Panics if an event references a block outside the program — the
    /// writer refuses to produce a file its own decoder would reject.
    pub fn push(&mut self, blocks: &[BlockId]) -> Result<(), ArtifactError> {
        for &b in blocks {
            assert!(
                u64::from(b.0) < self.num_blocks,
                "trace event {} out of range for a {}-block program",
                b.0,
                self.num_blocks
            );
            self.frame.push(b);
            if self.frame.len() == FRAME_EVENTS {
                self.flush_frame()?;
            }
        }
        self.events += blocks.len() as u64;
        Ok(())
    }

    /// Events pushed so far.
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Pushes all of `trace` and seals the artifact.
    fn write_all(mut self, trace: &Trace) -> Result<W, ArtifactError> {
        self.push(trace.blocks())?;
        self.finish()
    }

    /// Flushes the final partial frame and seals the artifact, returning the
    /// sink.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] if the flush or header patch fails.
    pub fn finish(mut self) -> Result<W, ArtifactError> {
        self.flush_frame()?;
        self.stream.finish()
    }

    /// Encodes the buffered frame as its own section (fresh delta stream).
    fn flush_frame(&mut self) -> Result<(), ArtifactError> {
        if self.frame.is_empty() {
            return Ok(());
        }
        let mut s = SectionWriter::new(SEC_FRAME_BASE + self.frames_written);
        for &b in &self.frame {
            s.put_delta(u64::from(b.0));
        }
        self.stream.write_section(s)?;
        self.frames_written += 1;
        self.frame.clear();
        Ok(())
    }
}

impl RecordingWriter<std::io::BufWriter<std::fs::File>> {
    /// Opens a streamed recording writer on `path` (conventionally
    /// `*.itrace`), creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on any filesystem failure.
    pub fn create(path: &Path, program: &Program, trace_name: &str) -> Result<Self, ArtifactError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| ArtifactError::io(path, e))?;
            }
        }
        let file = std::fs::File::create(path).map_err(|e| ArtifactError::io(path, e))?;
        RecordingWriter::new(std::io::BufWriter::new(file), program, trace_name)
    }
}

/// A [`BlockSource`] that decodes an `.itrace` event stream frame by frame.
///
/// Obtained from [`open_recording_stream`]. Peak memory is one frame; a
/// monolithic file written before the framed form holds its single trace
/// section instead.
///
/// **Integrity timing:** every section — each frame, or a monolithic file's
/// trace section — is CRC-verified before any of its events are handed out,
/// and `Ok(None)` is only returned once the container's tail has verified
/// too (declared section count, no trailing bytes). A consumer that runs to
/// completion has replayed a fully verified file; sections out of order,
/// missing or unknown are a typed error, never a shortened trace.
#[derive(Debug)]
pub struct TraceEventStream<R: Read> {
    reader: StreamReader<R>,
    num_blocks: u64,
    name: String,
    /// The frame the next section must be; `None` after a monolithic trace
    /// section, which no section may follow.
    next_frame: Option<u32>,
    /// `out` holds a monolithic section's events not yet handed out.
    pending: bool,
    out: Vec<BlockId>,
}

impl<R: Read> TraceEventStream<R> {
    /// The trace's recorded name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Drains the remaining events into a [`Trace`].
    fn into_trace(mut self) -> Result<Trace, ArtifactError> {
        let mut events = Vec::new();
        while let Some(chunk) = self.next_chunk()? {
            events.extend_from_slice(chunk);
        }
        Ok(Trace::new(self.name, events))
    }
}

impl<R: Read> BlockSource for TraceEventStream<R> {
    fn next_chunk(&mut self) -> Result<Option<&[BlockId]>, ArtifactError> {
        if std::mem::take(&mut self.pending) && !self.out.is_empty() {
            return Ok(Some(&self.out));
        }
        while let Some((id, _)) = self.reader.next_section()? {
            let Some(frame) = self.next_frame.filter(|&f| id == SEC_FRAME_BASE + f) else {
                let want = match self.next_frame {
                    Some(f) => format!("frame {f} (section {})", SEC_FRAME_BASE + f),
                    None => "the end of the trace".to_string(),
                };
                return Err(ArtifactError::malformed(
                    "section order",
                    format!("expected {want}, found section {id}"),
                ));
            };
            self.next_frame = Some(frame + 1);
            let payload = self.reader.take_payload()?;
            let mut sec = SectionReader::new(id, &payload);
            self.out.clear();
            while sec.remaining() > 0 {
                self.out.push(in_range_block(sec.take_delta()?, self.num_blocks, "trace event")?);
            }
            // An empty frame (which a foreign writer may make) is skipped.
            if !self.out.is_empty() {
                return Ok(Some(&self.out));
            }
        }
        Ok(None)
    }
}

/// Opens a recording for streamed replay: decodes the program up front
/// (it is small and the simulator needs it whole) and returns the event
/// sections as a [`BlockSource`] that decodes on demand.
///
/// The reader is sequential and expects the section order the writer
/// produces (program sections 1–6, then the trace); it also accepts the
/// monolithic trace form of older files.
///
/// # Errors
///
/// Header/program-section corruption (and a monolithic file's trace
/// corruption) surfaces here; frame corruption surfaces from the returned
/// stream's `next_chunk`.
///
/// # Examples
///
/// ```
/// use ispy_trace::{apps, artifact, BlockSource};
///
/// let model = apps::kafka().scaled_down(40);
/// let program = model.generate();
/// let trace = program.record_trace(model.default_input(), 1_000);
/// let bytes = artifact::recording_to_bytes(&program, &trace);
///
/// let (program2, mut stream) = artifact::open_recording_stream(bytes.as_slice()).unwrap();
/// assert_eq!(program2.name(), program.name());
/// let mut events = Vec::new();
/// while let Some(chunk) = stream.next_chunk().unwrap() {
///     events.extend_from_slice(chunk);
/// }
/// assert_eq!(events, trace.blocks());
/// ```
pub fn open_recording_stream<R: Read>(
    source: R,
) -> Result<(Program, TraceEventStream<R>), ArtifactError> {
    let mut reader = StreamReader::new(source, ArtifactKind::Trace)?;
    let mut payloads: [Vec<u8>; 6] = Default::default();
    for (i, payload) in payloads.iter_mut().enumerate() {
        let expect = SEC_META + i as u32;
        match reader.next_section()? {
            Some((id, _)) if id == expect => *payload = reader.take_payload()?,
            Some((id, _)) => {
                return Err(ArtifactError::malformed(
                    "section order",
                    format!("expected section {expect}, found {id}"),
                ))
            }
            None => return Err(ArtifactError::MissingSection { id: expect }),
        }
    }
    let program = decode_program(&payloads)?;
    let num_blocks = program.num_blocks() as u64;

    let mut stream = TraceEventStream {
        reader,
        num_blocks,
        name: String::new(),
        next_frame: Some(0),
        pending: false,
        out: Vec::new(),
    };
    match stream.reader.next_section()? {
        Some((SEC_TRACE_HEAD, _)) => {
            let payload = stream.reader.take_payload()?;
            let mut head = SectionReader::new(SEC_TRACE_HEAD, &payload);
            stream.name = head.take_str()?;
            head.finish()?;
        }
        Some((SEC_TRACE, _)) => {
            // The monolithic form: decoded whole once its CRC has verified.
            let payload = stream.reader.take_payload()?;
            let mut sec = SectionReader::new(SEC_TRACE, &payload);
            stream.name = sec.take_str()?;
            let n_events: usize = narrow(sec.take_varint()?, "trace length")?;
            stream.out.reserve(n_events.min(sec.remaining()));
            for _ in 0..n_events {
                stream.out.push(in_range_block(sec.take_delta()?, num_blocks, "trace event")?);
            }
            sec.finish()?;
            stream.next_frame = None;
            stream.pending = true;
        }
        Some((id, _)) => {
            return Err(ArtifactError::malformed(
                "section order",
                format!("expected a trace section, found {id}"),
            ))
        }
        None => return Err(ArtifactError::MissingSection { id: SEC_TRACE_HEAD }),
    }
    Ok((program, stream))
}

/// Opens a recording file for streamed replay; see [`open_recording_stream`].
///
/// # Errors
///
/// [`ArtifactError::Io`] on filesystem failure, otherwise as
/// [`open_recording_stream`].
pub fn open_recording_file(
    path: &Path,
) -> Result<(Program, TraceEventStream<std::io::BufReader<std::fs::File>>), ArtifactError> {
    let file = std::fs::File::open(path).map_err(|e| ArtifactError::io(path, e))?;
    open_recording_stream(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use crate::exec::InputSpec;

    fn sample() -> (Program, Trace) {
        let model = apps::wordpress().scaled_down(60);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 2_000);
        (program, trace)
    }

    /// A monolithic recording from before the framed form existed, made by
    /// `repro record finagle-http --test-scale --events 2000`.
    const MONOLITHIC: &[u8] = include_bytes!("../../../tests/data/finagle-http-monolithic.itrace");

    /// The program and trace [`MONOLITHIC`] holds (`--test-scale` shrinks
    /// the model 20x).
    fn monolithic_recording() -> (Program, Trace) {
        let model = apps::finagle_http().scaled_down(20);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 2_000);
        (program, trace)
    }

    /// Frames `sections` into a trace container by hand, for layouts the
    /// writer refuses to produce.
    fn container(sections: Vec<SectionWriter>) -> Vec<u8> {
        let mut w = StreamWriter::new(Cursor::new(Vec::new()), ArtifactKind::Trace).unwrap();
        for s in sections {
            w.write_section(s).unwrap();
        }
        w.finish().unwrap().into_inner()
    }

    /// The monolithic form, hand-built: program sections, then one
    /// `SEC_TRACE` section holding name, count and every event.
    fn monolithic_bytes(program: &Program, trace: &Trace) -> Vec<u8> {
        let mut events = SectionWriter::new(SEC_TRACE);
        events.put_str(trace.name());
        events.put_varint(trace.len() as u64);
        for b in trace.iter() {
            events.put_delta(u64::from(b.0));
        }
        let mut sections = program_sections(program);
        sections.push(events);
        container(sections)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (program, trace) = sample();
        let bytes = recording_to_bytes(&program, &trace);
        let (p2, t2) = recording_from_bytes(&bytes).unwrap();
        assert_eq!(p2.name(), program.name());
        assert_eq!(p2.num_blocks(), program.num_blocks());
        assert_eq!(p2.num_funcs(), program.num_funcs());
        assert_eq!(p2.blocks(), program.blocks());
        assert_eq!(p2.data_footprint_lines(), program.data_footprint_lines());
        assert_eq!(p2.branch_determinism().to_bits(), program.branch_determinism().to_bits());
        assert_eq!(p2.request_variants(), program.request_variants());
        assert_eq!(p2.request_paths(), program.request_paths());
        for i in 0..program.num_blocks() {
            let b = BlockId(i as u32);
            assert_eq!(p2.exit(b), program.exit(b));
            assert_eq!(p2.owner_of(b), program.owner_of(b));
        }
        assert_eq!(t2, trace);
    }

    #[test]
    fn reencoding_is_byte_identical() {
        // Determinism of the encoder itself: encode(decode(encode(x)))
        // must reproduce the same bytes, or cache keys would churn.
        let (program, trace) = sample();
        let bytes = recording_to_bytes(&program, &trace);
        let (p2, t2) = recording_from_bytes(&bytes).unwrap();
        assert_eq!(recording_to_bytes(&p2, &t2), bytes);
    }

    #[test]
    fn replayed_walk_matches_original() {
        // A loaded program must generate the same traces as the original:
        // the walker's behaviour depends on every serialized field.
        let (program, trace) = sample();
        let bytes = recording_to_bytes(&program, &trace);
        let (p2, _) = recording_from_bytes(&bytes).unwrap();
        let input = InputSpec::uniform(7, program.request_paths().len());
        let a = program.record_trace(input.clone(), 3_000);
        let b = p2.record_trace(input, 3_000);
        assert_eq!(a, b);
    }

    #[test]
    fn monolithic_fixture_is_the_documented_layout() {
        // The committed file is byte for byte the hand-built monolithic form
        // of its recording, so the decoder tests below exercise that layout.
        let (program, trace) = monolithic_recording();
        assert_eq!(monolithic_bytes(&program, &trace), MONOLITHIC);
    }

    #[test]
    fn out_of_range_trace_event_is_malformed() {
        let (program, _) = sample();
        let bogus = Trace::new("bad", vec![BlockId(program.num_blocks() as u32)]);
        let bytes = monolithic_bytes(&program, &bogus);
        assert!(matches!(
            recording_from_bytes(&bytes),
            Err(ArtifactError::Malformed { context: "trace event", .. })
        ));
    }

    #[test]
    fn sections_after_a_monolithic_trace_are_rejected() {
        // A frame appended to a monolithic file is not more events.
        let (program, trace) = sample();
        let mut events = SectionWriter::new(SEC_TRACE);
        events.put_str(trace.name());
        events.put_varint(0);
        let mut frame = SectionWriter::new(SEC_FRAME_BASE);
        frame.put_delta(0);
        let mut sections = program_sections(&program);
        sections.extend([events, frame]);
        assert!(matches!(
            recording_from_bytes(&container(sections)),
            Err(ArtifactError::Malformed { context: "section order", .. })
        ));
    }

    #[test]
    fn file_round_trip() {
        let (program, trace) = sample();
        let dir = std::env::temp_dir().join(format!("ispy-itrace-test-{}", std::process::id()));
        let path = dir.join("sample.itrace");
        write_recording(&program, &trace, &path).unwrap();
        let (p2, t2) = read_recording(&path).unwrap();
        assert_eq!(p2.name(), program.name());
        assert_eq!(t2, trace);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Encodes via the streaming writer into memory.
    fn framed_bytes(program: &Program, trace: &Trace) -> Vec<u8> {
        let mut w = RecordingWriter::new(Cursor::new(Vec::new()), program, trace.name()).unwrap();
        // Push in uneven slices so frame boundaries don't align with pushes.
        for piece in trace.blocks().chunks(777) {
            w.push(piece).unwrap();
        }
        assert_eq!(w.events_written(), trace.len() as u64);
        w.finish().unwrap().into_inner()
    }

    fn drain<S: BlockSource>(s: &mut S) -> Vec<BlockId> {
        let mut out = Vec::new();
        while let Some(chunk) = s.next_chunk().unwrap() {
            out.extend_from_slice(chunk);
        }
        out
    }

    #[test]
    fn framed_form_round_trips_through_the_buffered_decoder() {
        // Uneven pushes decode back exactly through the materializing
        // decoder, and produce the same bytes as one whole-trace push.
        let (program, trace) = sample();
        let bytes = framed_bytes(&program, &trace);
        assert_eq!(bytes, recording_to_bytes(&program, &trace));
        let (p2, t2) = recording_from_bytes(&bytes).unwrap();
        assert_eq!(p2.name(), program.name());
        assert_eq!(p2.blocks(), program.blocks());
        assert_eq!(t2, trace);
    }

    #[test]
    fn both_forms_stream_back_identically() {
        let (program, trace) = monolithic_recording();
        for bytes in [MONOLITHIC.to_vec(), framed_bytes(&program, &trace)] {
            let (p2, mut stream) = open_recording_stream(bytes.as_slice()).unwrap();
            assert_eq!(p2.name(), program.name());
            assert_eq!(p2.blocks(), program.blocks());
            assert_eq!(stream.name(), trace.name());
            assert_eq!(drain(&mut stream), trace.blocks());
            assert_eq!(stream.next_chunk().unwrap(), None, "stream must stay exhausted");
        }
    }

    #[test]
    fn stream_decode_is_push_size_invariant() {
        // Frame boundaries are fixed by FRAME_EVENTS, never by how events
        // were pushed: the bytes, and so the decoded chunks, are the same
        // for every push size across several frames.
        let model = apps::kafka().scaled_down(60);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 2 * FRAME_EVENTS + 123);
        let reference = recording_to_bytes(&program, &trace);
        for push in [1usize, 3, 1024, FRAME_EVENTS, trace.len()] {
            let mut w =
                RecordingWriter::new(Cursor::new(Vec::new()), &program, trace.name()).unwrap();
            for piece in trace.blocks().chunks(push) {
                w.push(piece).unwrap();
            }
            assert_eq!(w.finish().unwrap().into_inner(), reference, "push {push}");
        }
        let (_, mut stream) = open_recording_stream(reference.as_slice()).unwrap();
        let mut chunks = Vec::new();
        while let Some(chunk) = stream.next_chunk().unwrap() {
            chunks.push(chunk.to_vec());
        }
        assert_eq!(
            chunks.iter().map(Vec::len).collect::<Vec<_>>(),
            [FRAME_EVENTS, FRAME_EVENTS, 123]
        );
        assert_eq!(chunks.concat(), trace.blocks());
        // The monolithic form hands its one verified section out whole.
        let (_, mut stream) = open_recording_stream(MONOLITHIC).unwrap();
        assert_eq!(stream.next_chunk().unwrap().map(<[BlockId]>::len), Some(2_000));
        assert_eq!(stream.next_chunk().unwrap(), None);
    }

    #[test]
    fn truncated_streams_yield_typed_errors_not_partial_results() {
        let (program, trace) = monolithic_recording();
        for bytes in [MONOLITHIC.to_vec(), framed_bytes(&program, &trace)] {
            // Cut in the middle of the event data (well past the program
            // sections) and at the very end (missing trailer CRC bytes).
            for cut in [bytes.len() - 1_000, bytes.len() - 2] {
                let truncated = &bytes[..cut];
                let mut err = None;
                match open_recording_stream(truncated) {
                    Err(e) => err = Some(e),
                    Ok((_, mut stream)) => loop {
                        match stream.next_chunk() {
                            Ok(Some(_)) => continue,
                            Ok(None) => break,
                            Err(e) => {
                                err = Some(e);
                                break;
                            }
                        }
                    },
                }
                let err =
                    err.unwrap_or_else(|| panic!("truncated stream at {cut} decoded cleanly"));
                assert!(
                    matches!(
                        err,
                        ArtifactError::Truncated { .. }
                            | ArtifactError::SectionChecksum { .. }
                            | ArtifactError::TrailingBytes
                            | ArtifactError::Malformed { .. }
                    ),
                    "unexpected error class at cut {cut}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_event_in_framed_form_is_malformed() {
        let (program, _) = sample();
        // RecordingWriter refuses to write it; hand-build the frame instead.
        let mut head = SectionWriter::new(SEC_TRACE_HEAD);
        head.put_str("bad");
        let mut frame = SectionWriter::new(SEC_FRAME_BASE);
        for b in [0, program.num_blocks() as u64] {
            frame.put_delta(b);
        }
        let mut sections = program_sections(&program);
        sections.extend([head, frame]);
        let bytes = container(sections);
        assert!(matches!(
            recording_from_bytes(&bytes),
            Err(ArtifactError::Malformed { context: "trace event", .. })
        ));
        let (_, mut stream) = open_recording_stream(bytes.as_slice()).unwrap();
        let mut err = None;
        loop {
            match stream.next_chunk() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err, Some(ArtifactError::Malformed { context: "trace event", .. })));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn recording_writer_rejects_foreign_blocks() {
        let (program, _) = sample();
        let mut w = RecordingWriter::new(Cursor::new(Vec::new()), &program, "x").unwrap();
        let _ = w.push(&[BlockId(program.num_blocks() as u32)]);
    }

    #[test]
    fn streamed_file_round_trip() {
        let (program, trace) = sample();
        let dir =
            std::env::temp_dir().join(format!("ispy-itrace-stream-test-{}", std::process::id()));
        let path = dir.join("sample.itrace");
        let mut w = RecordingWriter::create(&path, &program, trace.name()).unwrap();
        w.push(trace.blocks()).unwrap();
        w.finish().unwrap();
        let (p2, mut stream) = open_recording_file(&path).unwrap();
        assert_eq!(p2.name(), program.name());
        assert_eq!(drain(&mut stream), trace.blocks());
        // The same file also loads through the materializing path.
        let (_, t2) = read_recording(&path).unwrap();
        assert_eq!(t2, trace);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
