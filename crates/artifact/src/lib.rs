//! Durable binary artifacts: the interchange layer of the I-SPY pipeline.
//!
//! The paper's whole premise is an *offline* pipeline — profile in
//! production, analyze offline, inject at link time — which implies profile
//! and plan artifacts shipped between machines and runs. This crate is the
//! container format those artifacts share:
//!
//! * a fixed 20-byte header (magic, format version, artifact kind, section
//!   count, header CRC),
//! * a sequence of **sections**, each `(id, length, payload, CRC-32)`, and
//! * payloads built from LEB128 varints, zigzag deltas, and raw IEEE-754
//!   bit patterns — so every `f64` round-trips exactly and integer streams
//!   (trace events, address tables) stay compact.
//!
//! Three artifact kinds ride on the container (their codecs live next to
//! the types they serialize): recorded block traces (`.itrace`, in
//! `ispy-trace`), miss-annotated profiles (`.iprof`, in `ispy-profile`),
//! and injection plans with provenance (`.iplan`, in `ispy-core`).
//!
//! Decoding is **strict**: truncated input, checksum mismatches, unknown
//! magic, future versions, duplicate sections, and malformed payloads all
//! surface as typed [`ArtifactError`]s — never panics. See
//! `docs/ARTIFACTS.md` in the repository root for the format specification.
//!
//! # Examples
//!
//! ```
//! use ispy_artifact::{ArtifactKind, ArtifactReader, ArtifactWriter};
//!
//! let mut w = ArtifactWriter::new(ArtifactKind::Trace);
//! let mut s = w.section(7);
//! s.put_varint(1_000_000);
//! s.put_f64(2.5);
//! w.finish_section(s);
//! let bytes = w.to_bytes();
//!
//! let r = ArtifactReader::from_bytes(&bytes, ArtifactKind::Trace).unwrap();
//! let mut s = r.section(7).unwrap();
//! assert_eq!(s.take_varint().unwrap(), 1_000_000);
//! assert_eq!(s.take_f64().unwrap(), 2.5);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod container;
pub mod crc;
pub mod error;
pub mod section;
pub mod stream;
pub mod varint;

pub use container::{ArtifactKind, ArtifactReader, ArtifactWriter, FORMAT_VERSION, MAGIC};
pub use error::{narrow, ArtifactError};
pub use section::{SectionReader, SectionWriter};
pub use stream::{StreamReader, StreamWriter};
