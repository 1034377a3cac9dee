//! The sectioned container: header, framing, checksums, strict parse.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic "ISPYART\0"
//! 8       2     format version
//! 10      2     artifact kind
//! 12      4     section count
//! 16      4     CRC-32 of bytes 0..16
//! 20      ...   sections
//! ```
//!
//! Each section is `(u32 id, u64 payload length, payload bytes, u32 CRC-32)`
//! where the CRC covers the id and length fields *and* the payload, so a bit
//! flip anywhere in the file — header, framing, payload, or a checksum
//! itself — is guaranteed to surface as a typed error.

use std::path::Path;

use crate::crc::crc32;
use crate::error::ArtifactError;
use crate::section::{SectionReader, SectionWriter};
use crate::stream::{write_frame, StreamReader};

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"ISPYART\0";

/// The newest container format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 1;

/// Fixed header length in bytes.
pub(crate) const HEADER_LEN: usize = 20;

/// Per-section framing overhead: id (4) + length (8) + CRC (4).
const SECTION_OVERHEAD: usize = 16;

/// Refuse to allocate payloads beyond this — a corrupt length field must not
/// become an OOM.
pub(crate) const MAX_SECTION_LEN: u64 = 1 << 30;

/// Serializes the fixed 20-byte header (magic, version, kind, section count,
/// header CRC). Shared by the buffered and streaming writers so both produce
/// bit-identical headers.
pub(crate) fn encode_header(kind: ArtifactKind, section_count: u32) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[..8].copy_from_slice(&MAGIC);
    out[8..10].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out[10..12].copy_from_slice(&kind.raw().to_le_bytes());
    out[12..16].copy_from_slice(&section_count.to_le_bytes());
    let header_crc = crc32(&out[..16]);
    out[16..20].copy_from_slice(&header_crc.to_le_bytes());
    out
}

/// Validates a 20-byte header against `expected` and returns the declared
/// section count.
pub(crate) fn parse_header(
    header: &[u8; HEADER_LEN],
    expected: ArtifactKind,
) -> Result<u32, ArtifactError> {
    if header[..8] != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = u16::from_le_bytes([header[8], header[9]]);
    if version != FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let raw_kind = u16::from_le_bytes([header[10], header[11]]);
    let kind =
        ArtifactKind::from_raw(raw_kind).ok_or(ArtifactError::UnknownKind { found: raw_kind })?;
    let count = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
    let stored_header_crc = u32::from_le_bytes([header[16], header[17], header[18], header[19]]);
    if crc32(&header[..16]) != stored_header_crc {
        return Err(ArtifactError::HeaderChecksum);
    }
    if kind != expected {
        return Err(ArtifactError::WrongKind { expected: expected.raw(), found: kind.raw() });
    }
    Ok(count)
}

/// What an artifact stores, written into the header and checked on read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// A recorded program + block trace (`.itrace`).
    Trace = 1,
    /// A miss-annotated profile (`.iprof`).
    Profile = 2,
    /// An injection plan with provenance (`.iplan`).
    Plan = 3,
}

impl ArtifactKind {
    /// The on-disk kind value.
    pub fn raw(self) -> u16 {
        self as u16
    }

    /// Decodes a raw kind value.
    pub fn from_raw(raw: u16) -> Option<Self> {
        match raw {
            1 => Some(ArtifactKind::Trace),
            2 => Some(ArtifactKind::Profile),
            3 => Some(ArtifactKind::Plan),
            _ => None,
        }
    }

    /// The conventional file extension (without the dot).
    pub fn extension(self) -> &'static str {
        match self {
            ArtifactKind::Trace => "itrace",
            ArtifactKind::Profile => "iprof",
            ArtifactKind::Plan => "iplan",
        }
    }
}

/// Assembles an artifact: open sections with [`ArtifactWriter::section`],
/// fill them, attach with [`ArtifactWriter::finish_section`], then serialize.
#[derive(Debug, Clone)]
pub struct ArtifactWriter {
    kind: ArtifactKind,
    sections: Vec<(u32, Vec<u8>)>,
}

impl ArtifactWriter {
    /// Starts an empty artifact of the given kind.
    pub fn new(kind: ArtifactKind) -> Self {
        ArtifactWriter { kind, sections: Vec::new() }
    }

    /// Opens a payload builder for section `id`.
    pub fn section(&self, id: u32) -> SectionWriter {
        SectionWriter::new(id)
    }

    /// Attaches a finished section. Section ids must be unique per artifact;
    /// attaching a duplicate is a programming error and panics.
    pub fn finish_section(&mut self, section: SectionWriter) {
        let (id, payload) = section.into_parts();
        assert!(
            self.sections.iter().all(|(existing, _)| *existing != id),
            "section {id} attached twice"
        );
        self.sections.push((id, payload));
    }

    /// Serializes the artifact to bytes, framing each section exactly as
    /// [`StreamWriter`](crate::StreamWriter) does.
    pub fn to_bytes(&self) -> Vec<u8> {
        let body_len: usize =
            self.sections.iter().map(|(_, p)| p.len() + SECTION_OVERHEAD).sum::<usize>();
        let mut out = Vec::with_capacity(HEADER_LEN + body_len);
        out.extend_from_slice(&encode_header(self.kind, self.sections.len() as u32));
        for (id, payload) in &self.sections {
            write_frame(&mut out, *id, payload).expect("writing to a Vec cannot fail");
        }
        out
    }

    /// Serializes and writes the artifact to `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on any filesystem failure.
    pub fn write_to(&self, path: &Path) -> Result<(), ArtifactError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| ArtifactError::io(path, e))?;
            }
        }
        std::fs::write(path, self.to_bytes()).map_err(|e| ArtifactError::io(path, e))
    }
}

/// A fully validated artifact: header checked, every section checksummed.
///
/// Construction walks the whole input through [`StreamReader`], so the
/// buffered and streaming readers share one parser and enforce identical
/// checks. [`ArtifactReader::section`] cannot fail on corruption — only
/// payload-level codec errors remain for the caller.
#[derive(Debug, Clone)]
pub struct ArtifactReader {
    kind: ArtifactKind,
    sections: Vec<(u32, Vec<u8>)>,
}

impl ArtifactReader {
    /// Parses and validates an artifact, checking it is of `expected` kind.
    ///
    /// # Errors
    ///
    /// Every structural defect maps to a typed [`ArtifactError`]: bad magic,
    /// future version, wrong/unknown kind, checksum mismatches, truncation,
    /// duplicate sections, oversized sections, trailing bytes.
    pub fn from_bytes(bytes: &[u8], expected: ArtifactKind) -> Result<Self, ArtifactError> {
        let mut reader = StreamReader::new(bytes, expected)?;
        let mut sections = Vec::new();
        while let Some((id, _)) = reader.next_section()? {
            sections.push((id, reader.take_payload()?));
        }
        Ok(ArtifactReader { kind: expected, sections })
    }

    /// Reads and validates an artifact file.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure, otherwise the same
    /// conditions as [`ArtifactReader::from_bytes`].
    pub fn read_from(path: &Path, expected: ArtifactKind) -> Result<Self, ArtifactError> {
        let bytes = std::fs::read(path).map_err(|e| ArtifactError::io(path, e))?;
        Self::from_bytes(&bytes, expected)
    }

    /// The artifact's kind.
    pub fn kind(&self) -> ArtifactKind {
        self.kind
    }

    /// Ids of all sections, in file order.
    pub fn section_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.sections.iter().map(|(id, _)| *id)
    }

    /// Opens a cursor over section `id`, if present.
    pub fn section(&self, id: u32) -> Option<SectionReader<'_>> {
        self.sections
            .iter()
            .find(|(existing, _)| *existing == id)
            .map(|(_, payload)| SectionReader::new(id, payload))
    }

    /// Opens a cursor over section `id`, erroring if absent.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::MissingSection`] when the artifact lacks the section.
    pub fn require_section(&self, id: u32) -> Result<SectionReader<'_>, ArtifactError> {
        self.section(id).ok_or(ArtifactError::MissingSection { id })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_artifact() -> Vec<u8> {
        let mut w = ArtifactWriter::new(ArtifactKind::Profile);
        let mut meta = w.section(1);
        meta.put_str("wordpress");
        meta.put_varint(123_456);
        w.finish_section(meta);
        let mut stats = w.section(2);
        for (i, v) in [1.5f64, -0.0, f64::INFINITY].iter().enumerate() {
            stats.put_delta(i as u64 * 1000);
            stats.put_f64(*v);
        }
        w.finish_section(stats);
        w.to_bytes()
    }

    #[test]
    fn multi_section_round_trip() {
        let bytes = sample_artifact();
        let r = ArtifactReader::from_bytes(&bytes, ArtifactKind::Profile).unwrap();
        assert_eq!(r.kind(), ArtifactKind::Profile);
        assert_eq!(r.section_ids().collect::<Vec<_>>(), vec![1, 2]);
        let mut meta = r.require_section(1).unwrap();
        assert_eq!(meta.take_str().unwrap(), "wordpress");
        assert_eq!(meta.take_varint().unwrap(), 123_456);
        meta.finish().unwrap();
        let mut stats = r.section(2).unwrap();
        for (i, v) in [1.5f64, -0.0, f64::INFINITY].iter().enumerate() {
            assert_eq!(stats.take_delta().unwrap(), i as u64 * 1000);
            assert_eq!(stats.take_f64().unwrap().to_bits(), v.to_bits());
        }
        stats.finish().unwrap();
        assert!(r.section(9).is_none());
        assert_eq!(r.require_section(9).unwrap_err(), ArtifactError::MissingSection { id: 9 });
    }

    #[test]
    fn empty_artifact_round_trips() {
        let bytes = ArtifactWriter::new(ArtifactKind::Plan).to_bytes();
        let r = ArtifactReader::from_bytes(&bytes, ArtifactKind::Plan).unwrap();
        assert_eq!(r.section_ids().count(), 0);
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let bytes = sample_artifact();
        assert_eq!(
            ArtifactReader::from_bytes(&bytes, ArtifactKind::Trace).unwrap_err(),
            ArtifactError::WrongKind {
                expected: ArtifactKind::Trace.raw(),
                found: ArtifactKind::Profile.raw()
            }
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_artifact();
        bytes[0] = b'X';
        assert_eq!(
            ArtifactReader::from_bytes(&bytes, ArtifactKind::Profile).unwrap_err(),
            ArtifactError::BadMagic
        );
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample_artifact();
        bytes[8] = 0xFF;
        bytes[9] = 0x7F;
        // Re-seal the header so the version check (not the CRC) fires.
        let crc = crate::crc::crc32(&bytes[..16]).to_le_bytes();
        bytes[16..20].copy_from_slice(&crc);
        assert_eq!(
            ArtifactReader::from_bytes(&bytes, ArtifactKind::Profile).unwrap_err(),
            ArtifactError::UnsupportedVersion { found: 0x7FFF, supported: FORMAT_VERSION }
        );
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut bytes = sample_artifact();
        bytes[10] = 42;
        bytes[11] = 0;
        let crc = crate::crc::crc32(&bytes[..16]).to_le_bytes();
        bytes[16..20].copy_from_slice(&crc);
        assert_eq!(
            ArtifactReader::from_bytes(&bytes, ArtifactKind::Profile).unwrap_err(),
            ArtifactError::UnknownKind { found: 42 }
        );
    }

    #[test]
    fn oversized_section_length_is_rejected_without_allocating() {
        let mut bytes = sample_artifact();
        // Corrupt section 1's length field to an absurd value.
        bytes[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            ArtifactReader::from_bytes(&bytes, ArtifactKind::Profile).unwrap_err(),
            ArtifactError::SectionTooLarge { id: 1, len: u64::MAX }
        );
    }

    #[test]
    fn duplicate_section_is_rejected() {
        // Hand-build a file with section 5 twice: serialize one section, then
        // splice a copy of its frame and patch the header count.
        let mut w = ArtifactWriter::new(ArtifactKind::Trace);
        let mut s = w.section(5);
        s.put_varint(7);
        w.finish_section(s);
        let mut bytes = w.to_bytes();
        let frame = bytes[HEADER_LEN..].to_vec();
        bytes.extend_from_slice(&frame);
        bytes[12..16].copy_from_slice(&2u32.to_le_bytes());
        let crc = crate::crc::crc32(&bytes[..16]).to_le_bytes();
        bytes[16..20].copy_from_slice(&crc);
        assert_eq!(
            ArtifactReader::from_bytes(&bytes, ArtifactKind::Trace).unwrap_err(),
            ArtifactError::DuplicateSection { id: 5 }
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_artifact();
        bytes.push(0);
        assert_eq!(
            ArtifactReader::from_bytes(&bytes, ArtifactKind::Profile).unwrap_err(),
            ArtifactError::TrailingBytes
        );
    }

    #[test]
    fn every_truncation_point_errors() {
        let bytes = sample_artifact();
        for cut in 0..bytes.len() {
            let result = ArtifactReader::from_bytes(&bytes[..cut], ArtifactKind::Profile);
            assert!(result.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn every_single_bit_flip_errors() {
        // The header CRC covers bytes 0..16 and each section CRC covers its
        // frame (id + length + payload), so *no* single-bit corruption can
        // decode cleanly — flipping a checksum byte breaks the checksum too.
        let bytes = sample_artifact();
        for byte_idx in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte_idx] ^= 1 << bit;
                let result = ArtifactReader::from_bytes(&corrupt, ArtifactKind::Profile);
                assert!(
                    result.is_err(),
                    "bit {bit} of byte {byte_idx} flipped but the artifact still decoded"
                );
            }
        }
    }

    #[test]
    fn file_round_trip_and_io_errors() {
        let dir = std::env::temp_dir().join(format!("ispy-artifact-test-{}", std::process::id()));
        let path = dir.join("nested").join("sample.iprof");
        let mut w = ArtifactWriter::new(ArtifactKind::Profile);
        let mut s = w.section(1);
        s.put_str("roundtrip");
        w.finish_section(s);
        w.write_to(&path).unwrap();
        let r = ArtifactReader::read_from(&path, ArtifactKind::Profile).unwrap();
        assert_eq!(r.require_section(1).unwrap().take_str().unwrap(), "roundtrip");
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(
            ArtifactReader::read_from(&path, ArtifactKind::Profile),
            Err(ArtifactError::Io { .. })
        ));
    }
}
