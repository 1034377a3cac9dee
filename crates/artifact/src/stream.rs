//! Incremental container IO: the on-disk format of
//! [`container`](crate::container), produced and consumed without ever
//! holding the whole artifact in memory.
//!
//! * [`StreamWriter`] frames sections straight to any `Write + Seek` sink.
//!   Only one section is in memory at a time (the section count is unknown
//!   until the end, so `finish` seeks back and patches the header — that is
//!   the single place `Seek` is needed).
//! * [`StreamReader`] walks sections off any `Read` source in file order,
//!   handing payload bytes out in caller-sized chunks while folding them
//!   into an incremental CRC that is verified at the section boundary.
//!
//! These are the container's only framer and parser: the buffered
//! [`ArtifactWriter`] frames its sections with the same routine, and
//! [`ArtifactReader`] collects its sections through a [`StreamReader`].
//!
//! **Validation timing.** `ArtifactReader` has validated the whole file by
//! the time it returns; a `StreamReader` can only validate what it has seen,
//! so corruption and truncation surface as typed errors *during iteration*
//! — a section's checksum mismatch is reported when its last payload byte
//! has been read, and a missing tail is reported by
//! [`StreamReader::finish`]. Callers must therefore treat any decoded data
//! as provisional until the section (or the whole stream) has been verified.
//!
//! [`ArtifactReader`]: crate::ArtifactReader
//! [`ArtifactWriter`]: crate::ArtifactWriter

use std::io::{Read, Seek, SeekFrom, Write};

use crate::container::{encode_header, parse_header, ArtifactKind, HEADER_LEN, MAX_SECTION_LEN};
use crate::crc::Crc32;
use crate::error::ArtifactError;
use crate::section::SectionWriter;

/// Wraps an IO failure on a seekable/readable stream that has no path.
fn io_stream(err: std::io::Error) -> ArtifactError {
    ArtifactError::Io { path: "<stream>".to_string(), message: err.to_string() }
}

/// Frames one section — id, payload length, payload, CRC-32 over all three —
/// onto `sink`. The one framing routine behind both writers.
pub(crate) fn write_frame<W: Write>(sink: &mut W, id: u32, payload: &[u8]) -> std::io::Result<()> {
    let id_bytes = id.to_le_bytes();
    let len_bytes = (payload.len() as u64).to_le_bytes();
    let mut crc = Crc32::new();
    crc.update(&id_bytes);
    crc.update(&len_bytes);
    crc.update(payload);
    sink.write_all(&id_bytes)?;
    sink.write_all(&len_bytes)?;
    sink.write_all(payload)?;
    sink.write_all(&crc.finish().to_le_bytes())
}

/// `read_exact` that maps a clean EOF to [`ArtifactError::Truncated`] with
/// the given context and any other IO failure to [`ArtifactError::Io`].
fn read_exact_ctx<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), ArtifactError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ArtifactError::Truncated { context }
        } else {
            io_stream(e)
        }
    })
}

/// Writes an artifact section by section to a seekable sink.
///
/// The header is written immediately with a section count of zero, so a
/// writer that crashes mid-stream leaves a file the strict reader rejects
/// (`TrailingBytes`) rather than silently truncated data. [`finish`]
/// seeks back and patches the true count in; only then is the file valid.
///
/// [`finish`]: StreamWriter::finish
///
/// # Examples
///
/// ```
/// use std::io::Cursor;
/// use ispy_artifact::{ArtifactKind, ArtifactReader, SectionWriter};
/// use ispy_artifact::stream::StreamWriter;
///
/// let mut w = StreamWriter::new(Cursor::new(Vec::new()), ArtifactKind::Trace).unwrap();
/// let mut s = SectionWriter::new(7);
/// s.put_varint(42);
/// w.write_section(s).unwrap();
/// let bytes = w.finish().unwrap().into_inner();
///
/// // The strict buffered reader accepts the streamed file.
/// let r = ArtifactReader::from_bytes(&bytes, ArtifactKind::Trace).unwrap();
/// assert_eq!(r.section(7).unwrap().take_varint().unwrap(), 42);
/// ```
#[derive(Debug)]
pub struct StreamWriter<W: Write + Seek> {
    sink: W,
    kind: ArtifactKind,
    count: u32,
    seen: Vec<u32>,
}

impl<W: Write + Seek> StreamWriter<W> {
    /// Starts a streamed artifact of the given kind, writing the provisional
    /// header (section count zero) at the sink's current position.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] if the sink rejects the header write.
    pub fn new(mut sink: W, kind: ArtifactKind) -> Result<Self, ArtifactError> {
        sink.write_all(&encode_header(kind, 0)).map_err(io_stream)?;
        Ok(StreamWriter { sink, kind, count: 0, seen: Vec::new() })
    }

    /// The artifact kind being written.
    pub fn kind(&self) -> ArtifactKind {
        self.kind
    }

    /// Frames a finished section straight to the sink. Section ids must be
    /// unique per artifact; writing a duplicate is a programming error and
    /// panics (mirroring [`ArtifactWriter::finish_section`]).
    ///
    /// [`ArtifactWriter::finish_section`]: crate::ArtifactWriter::finish_section
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] if the sink rejects the write.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate section id or a payload larger than the
    /// reader's allocation cap.
    pub fn write_section(&mut self, section: SectionWriter) -> Result<(), ArtifactError> {
        let (id, payload) = section.into_parts();
        assert!(!self.seen.contains(&id), "section {id} written twice");
        assert!(
            payload.len() as u64 <= MAX_SECTION_LEN,
            "section {id} payload exceeds the decoder cap"
        );
        self.seen.push(id);
        write_frame(&mut self.sink, id, &payload).map_err(io_stream)?;
        self.count += 1;
        Ok(())
    }

    /// Seeks back to patch the true section count into the header, flushes,
    /// and returns the sink. The artifact is only valid after this.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] if seeking, the header rewrite, or the flush
    /// fails.
    pub fn finish(mut self) -> Result<W, ArtifactError> {
        self.sink.seek(SeekFrom::Start(0)).map_err(io_stream)?;
        self.sink.write_all(&encode_header(self.kind, self.count)).map_err(io_stream)?;
        self.sink.flush().map_err(io_stream)?;
        Ok(self.sink)
    }
}

impl StreamWriter<std::io::BufWriter<std::fs::File>> {
    /// Opens a buffered streamed-artifact writer on `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on any filesystem failure.
    pub fn create(path: &std::path::Path, kind: ArtifactKind) -> Result<Self, ArtifactError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| ArtifactError::io(path, e))?;
            }
        }
        let file = std::fs::File::create(path).map_err(|e| ArtifactError::io(path, e))?;
        StreamWriter::new(std::io::BufWriter::new(file), kind)
    }
}

/// The section currently being streamed out of a [`StreamReader`].
#[derive(Debug)]
struct CurrentSection {
    id: u32,
    remaining: u64,
    crc: Crc32,
}

/// Reads an artifact section by section off any byte stream.
///
/// The header is validated up front; sections are then walked in file order with [`next_section`] /
/// [`read_chunk`]. Each section's CRC is verified when its last payload byte
/// is consumed, and [`finish`] drains + verifies everything left, so a
/// caller that runs the reader to completion has verified the whole file —
/// exactly what [`ArtifactReader`](crate::ArtifactReader), which is built on
/// this reader, guarantees up front.
///
/// [`next_section`]: StreamReader::next_section
/// [`read_chunk`]: StreamReader::read_chunk
/// [`finish`]: StreamReader::finish
///
/// # Examples
///
/// ```
/// use ispy_artifact::{ArtifactKind, ArtifactWriter};
/// use ispy_artifact::stream::StreamReader;
///
/// let mut w = ArtifactWriter::new(ArtifactKind::Plan);
/// let mut s = w.section(3);
/// s.put_str("hello");
/// w.finish_section(s);
/// let bytes = w.to_bytes();
///
/// let mut r = StreamReader::new(bytes.as_slice(), ArtifactKind::Plan).unwrap();
/// let (id, len) = r.next_section().unwrap().unwrap();
/// assert_eq!(id, 3);
/// let payload = r.take_payload().unwrap();
/// assert_eq!(payload.len() as u64, len);
/// assert_eq!(r.next_section().unwrap(), None);
/// r.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct StreamReader<R: Read> {
    source: R,
    kind: ArtifactKind,
    declared: u32,
    consumed: u32,
    seen: Vec<u32>,
    current: Option<CurrentSection>,
}

impl<R: Read> StreamReader<R> {
    /// Reads and validates the 20-byte header, checking the artifact is of
    /// `expected` kind.
    ///
    /// # Errors
    ///
    /// Bad magic, future version, wrong/unknown kind, header checksum,
    /// truncation, or [`ArtifactError::Io`] on read failure.
    pub fn new(mut source: R, expected: ArtifactKind) -> Result<Self, ArtifactError> {
        let mut header = [0u8; HEADER_LEN];
        read_exact_ctx(&mut source, &mut header, "header")?;
        let declared = parse_header(&header, expected)?;
        Ok(StreamReader {
            source,
            kind: expected,
            declared,
            consumed: 0,
            seen: Vec::new(),
            current: None,
        })
    }

    /// The artifact's kind.
    pub fn kind(&self) -> ArtifactKind {
        self.kind
    }

    /// Advances to the next section, returning its `(id, payload length)`,
    /// or `None` once all declared sections are consumed and the stream ends
    /// cleanly. Any unread payload of the previous section is drained and
    /// CRC-verified first, so skipping a section never skips its integrity
    /// check.
    ///
    /// # Errors
    ///
    /// Truncation, oversized/duplicate sections, checksum mismatches while
    /// draining, trailing bytes after the last section, or
    /// [`ArtifactError::Io`].
    pub fn next_section(&mut self) -> Result<Option<(u32, u64)>, ArtifactError> {
        while self.current.is_some() {
            let mut scratch = [0u8; 8192];
            self.read_chunk(&mut scratch)?;
        }
        if self.consumed == self.declared {
            return if self.at_eof()? { Ok(None) } else { Err(ArtifactError::TrailingBytes) };
        }
        let mut frame = [0u8; 12];
        read_exact_ctx(&mut self.source, &mut frame, "section frame")?;
        let id = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
        let mut len_raw = [0u8; 8];
        len_raw.copy_from_slice(&frame[4..12]);
        let len = u64::from_le_bytes(len_raw);
        if len > MAX_SECTION_LEN {
            return Err(ArtifactError::SectionTooLarge { id, len });
        }
        if self.seen.contains(&id) {
            return Err(ArtifactError::DuplicateSection { id });
        }
        self.seen.push(id);
        let mut crc = Crc32::new();
        crc.update(&frame);
        self.current = Some(CurrentSection { id, remaining: len, crc });
        if len == 0 {
            self.verify_trailer()?;
        }
        Ok(Some((id, len)))
    }

    /// Reads up to `buf.len()` payload bytes of the current section,
    /// returning how many were read — `0` once the section is exhausted (or
    /// none is open). The section's CRC is checked automatically as its last
    /// byte is delivered, so by the time the caller sees the final chunk the
    /// payload is verified.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Truncated`] if the stream ends mid-payload,
    /// [`ArtifactError::SectionChecksum`] on CRC mismatch at the section
    /// boundary, or [`ArtifactError::Io`].
    pub fn read_chunk(&mut self, buf: &mut [u8]) -> Result<usize, ArtifactError> {
        let Some(cur) = self.current.as_mut() else { return Ok(0) };
        let take = buf.len().min(usize::try_from(cur.remaining).unwrap_or(usize::MAX));
        if take == 0 {
            return Ok(0);
        }
        read_exact_ctx(&mut self.source, &mut buf[..take], "section payload")?;
        cur.crc.update(&buf[..take]);
        cur.remaining -= take as u64;
        if cur.remaining == 0 {
            self.verify_trailer()?;
        }
        Ok(take)
    }

    /// Buffers the remainder of the current section's payload and verifies
    /// its CRC. Allocation is bounded by the framing cap (the length field
    /// was range-checked in [`next_section`](StreamReader::next_section))
    /// and grows with the bytes actually read, so a corrupt length in a
    /// short input fails as truncated before it can reserve the full claim.
    ///
    /// # Errors
    ///
    /// The same conditions as [`read_chunk`](StreamReader::read_chunk).
    pub fn take_payload(&mut self) -> Result<Vec<u8>, ArtifactError> {
        const STEP: usize = 1 << 20;
        let mut remaining = self.current.as_ref().map_or(0, |c| c.remaining) as usize;
        let mut buf = Vec::new();
        while remaining > 0 {
            let start = buf.len();
            let step = remaining.min(start.max(STEP));
            buf.resize(start + step, 0);
            self.read_chunk(&mut buf[start..])?;
            remaining -= step;
        }
        Ok(buf)
    }

    /// Drains and verifies every remaining section, then checks the stream
    /// ends exactly at the last declared section. Returns the source.
    ///
    /// # Errors
    ///
    /// Any integrity failure in the unread tail: truncation, checksum
    /// mismatch, duplicate/oversized sections, trailing bytes, or
    /// [`ArtifactError::Io`].
    pub fn finish(mut self) -> Result<R, ArtifactError> {
        while self.next_section()?.is_some() {}
        Ok(self.source)
    }

    /// Reads the current section's trailing CRC and compares it against the
    /// running checksum, closing the section.
    fn verify_trailer(&mut self) -> Result<(), ArtifactError> {
        let cur = self.current.take().expect("no open section");
        let mut stored = [0u8; 4];
        read_exact_ctx(&mut self.source, &mut stored, "section checksum")?;
        if u32::from_le_bytes(stored) != cur.crc.finish() {
            return Err(ArtifactError::SectionChecksum { id: cur.id });
        }
        self.consumed += 1;
        Ok(())
    }

    /// Probes whether the source is exhausted (consuming at most one byte,
    /// and only when it is not).
    fn at_eof(&mut self) -> Result<bool, ArtifactError> {
        let mut byte = [0u8; 1];
        loop {
            match self.source.read(&mut byte) {
                Ok(0) => return Ok(true),
                Ok(_) => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_stream(e)),
            }
        }
    }
}

impl StreamReader<std::io::BufReader<std::fs::File>> {
    /// Opens a buffered streamed-artifact reader on `path`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure, otherwise the same
    /// conditions as [`StreamReader::new`].
    pub fn open(path: &std::path::Path, expected: ArtifactKind) -> Result<Self, ArtifactError> {
        let file = std::fs::File::open(path).map_err(|e| ArtifactError::io(path, e))?;
        StreamReader::new(std::io::BufReader::new(file), expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{ArtifactReader, ArtifactWriter};
    use std::io::Cursor;

    fn streamed_sample() -> Vec<u8> {
        let mut w = StreamWriter::new(Cursor::new(Vec::new()), ArtifactKind::Trace).unwrap();
        let mut meta = SectionWriter::new(1);
        meta.put_str("cassandra");
        meta.put_varint(99);
        w.write_section(meta).unwrap();
        let mut blocks = SectionWriter::new(2);
        for i in 0..1000u64 {
            blocks.put_delta(i * 7);
        }
        w.write_section(blocks).unwrap();
        w.write_section(SectionWriter::new(3)).unwrap(); // empty section
        w.finish().unwrap().into_inner()
    }

    #[test]
    fn streamed_file_parses_under_the_strict_buffered_reader() {
        let bytes = streamed_sample();
        let r = ArtifactReader::from_bytes(&bytes, ArtifactKind::Trace).unwrap();
        assert_eq!(r.section_ids().collect::<Vec<_>>(), vec![1, 2, 3]);
        let mut meta = r.require_section(1).unwrap();
        assert_eq!(meta.take_str().unwrap(), "cassandra");
        assert_eq!(meta.take_varint().unwrap(), 99);
        meta.finish().unwrap();
    }

    #[test]
    fn streamed_bytes_match_buffered_writer_exactly() {
        let fill = |id: u32| {
            let mut s = SectionWriter::new(id);
            s.put_str("x");
            s.put_varint(u64::from(id) * 1000);
            s
        };
        let mut bw = ArtifactWriter::new(ArtifactKind::Profile);
        let mut sw = StreamWriter::new(Cursor::new(Vec::new()), ArtifactKind::Profile).unwrap();
        for id in 1u32..=3 {
            bw.finish_section(fill(id));
            sw.write_section(fill(id)).unwrap();
        }
        assert_eq!(sw.finish().unwrap().into_inner(), bw.to_bytes());
    }

    #[test]
    fn buffered_file_streams_back_chunk_by_chunk() {
        let mut w = ArtifactWriter::new(ArtifactKind::Plan);
        let mut s = w.section(9);
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for &b in &payload {
            s.put_u8(b);
        }
        w.finish_section(s);
        let bytes = w.to_bytes();

        for chunk in [1usize, 7, 4096, 1 << 20] {
            let mut r = StreamReader::new(bytes.as_slice(), ArtifactKind::Plan).unwrap();
            let (id, len) = r.next_section().unwrap().unwrap();
            assert_eq!((id, len), (9, payload.len() as u64));
            let mut got = Vec::new();
            let mut buf = vec![0u8; chunk];
            loop {
                let n = r.read_chunk(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            assert_eq!(got, payload, "chunk size {chunk}");
            assert_eq!(r.next_section().unwrap(), None);
            r.finish().unwrap();
        }
    }

    #[test]
    fn skipping_a_section_still_verifies_it() {
        let mut bytes = streamed_sample();
        // Corrupt a byte deep inside section 2's payload (the file ends with
        // section 2's CRC, then the 16-byte empty section 3), then skip it.
        let sec2_payload_byte = bytes.len() - 16 - 4 - 200;
        bytes[sec2_payload_byte] ^= 0x40;
        let mut r = StreamReader::new(bytes.as_slice(), ArtifactKind::Trace).unwrap();
        assert_eq!(r.next_section().unwrap().unwrap().0, 1);
        assert_eq!(r.next_section().unwrap().unwrap().0, 2);
        // Skip section 2 entirely: the drain inside next_section must still
        // catch the corruption.
        assert_eq!(r.next_section().unwrap_err(), ArtifactError::SectionChecksum { id: 2 });
    }

    #[test]
    fn finish_drains_and_verifies_the_tail() {
        let bytes = streamed_sample();
        let r = StreamReader::new(bytes.as_slice(), ArtifactKind::Trace).unwrap();
        // Never touched a section: finish still walks and verifies all three.
        r.finish().unwrap();

        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 3);
        let r = StreamReader::new(truncated.as_slice(), ArtifactKind::Trace).unwrap();
        assert!(matches!(r.finish().unwrap_err(), ArtifactError::Truncated { .. }));

        let mut trailing = bytes;
        trailing.push(0);
        let r = StreamReader::new(trailing.as_slice(), ArtifactKind::Trace).unwrap();
        assert_eq!(r.finish().unwrap_err(), ArtifactError::TrailingBytes);
    }

    #[test]
    fn every_truncation_point_errors_eventually() {
        let bytes = streamed_sample();
        for cut in 0..bytes.len() {
            let result = StreamReader::new(&bytes[..cut], ArtifactKind::Trace)
                .and_then(|r| r.finish().map(|_| ()));
            assert!(result.is_err(), "prefix of {cut} bytes streamed successfully");
        }
    }

    #[test]
    fn every_single_bit_flip_errors_eventually() {
        let bytes = streamed_sample();
        for byte_idx in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte_idx] ^= 1 << bit;
                let result = StreamReader::new(corrupt.as_slice(), ArtifactKind::Trace)
                    .and_then(|r| r.finish().map(|_| ()));
                assert!(
                    result.is_err(),
                    "bit {bit} of byte {byte_idx} flipped but the stream verified"
                );
            }
        }
    }

    #[test]
    fn header_level_rejections_match_the_buffered_reader() {
        let bytes = streamed_sample();
        assert_eq!(
            StreamReader::new(bytes.as_slice(), ArtifactKind::Profile).unwrap_err(),
            ArtifactError::WrongKind {
                expected: ArtifactKind::Profile.raw(),
                found: ArtifactKind::Trace.raw()
            }
        );
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            StreamReader::new(bad.as_slice(), ArtifactKind::Trace).unwrap_err(),
            ArtifactError::BadMagic
        );
        assert_eq!(
            StreamReader::new(&bytes[..10], ArtifactKind::Trace).unwrap_err(),
            ArtifactError::Truncated { context: "header" }
        );
    }

    #[test]
    fn duplicate_section_id_is_rejected_mid_stream() {
        // Hand-splice a duplicate frame, as the container tests do.
        let mut w = StreamWriter::new(Cursor::new(Vec::new()), ArtifactKind::Trace).unwrap();
        let mut s = SectionWriter::new(5);
        s.put_varint(7);
        w.write_section(s).unwrap();
        let mut bytes = w.finish().unwrap().into_inner();
        let frame = bytes[HEADER_LEN..].to_vec();
        bytes.extend_from_slice(&frame);
        bytes[..HEADER_LEN].copy_from_slice(&encode_header(ArtifactKind::Trace, 2));
        let mut r = StreamReader::new(bytes.as_slice(), ArtifactKind::Trace).unwrap();
        assert_eq!(r.next_section().unwrap().unwrap().0, 5);
        assert_eq!(r.next_section().unwrap_err(), ArtifactError::DuplicateSection { id: 5 });
    }

    #[test]
    fn unfinished_writer_output_is_rejected() {
        // Simulate a crash: sections written but `finish` never called, so
        // the header still claims zero sections.
        let mut w = StreamWriter::new(Cursor::new(Vec::new()), ArtifactKind::Trace).unwrap();
        let mut s = SectionWriter::new(1);
        s.put_varint(1);
        w.write_section(s).unwrap();
        let bytes = w.sink.into_inner();
        assert_eq!(
            ArtifactReader::from_bytes(&bytes, ArtifactKind::Trace).unwrap_err(),
            ArtifactError::TrailingBytes
        );
        let r = StreamReader::new(bytes.as_slice(), ArtifactKind::Trace).unwrap();
        assert_eq!(r.finish().unwrap_err(), ArtifactError::TrailingBytes);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("ispy-stream-test-{}", std::process::id()));
        let path = dir.join("nested").join("sample.itrace");
        let mut w = StreamWriter::create(&path, ArtifactKind::Trace).unwrap();
        let mut s = SectionWriter::new(1);
        s.put_str("roundtrip");
        w.write_section(s).unwrap();
        w.finish().unwrap();
        let mut r = StreamReader::open(&path, ArtifactKind::Trace).unwrap();
        assert_eq!(r.next_section().unwrap().unwrap().0, 1);
        let payload = r.take_payload().unwrap();
        let mut sr = crate::section::SectionReader::new(1, &payload);
        assert_eq!(sr.take_str().unwrap(), "roundtrip");
        sr.finish().unwrap();
        r.finish().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(
            StreamReader::open(&path, ArtifactKind::Trace),
            Err(ArtifactError::Io { .. })
        ));
    }
}
