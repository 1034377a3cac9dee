//! Replay-from-artifact: run the simulator straight off a `.itrace` file.
//!
//! The artifact path decouples *recording* an execution from *simulating*
//! it: a trace captured once (synthetically, or ingested from a perf LBR
//! dump) can be replayed under any simulator or injection configuration
//! without re-running the workload. Because the `.itrace` codec is exact,
//! a replayed run is byte-identical to a run over the in-memory recording —
//! the property the golden tests pin.
//!
//! # Examples
//!
//! ```
//! use ispy_sim::{replay, run, RunOptions, SimConfig};
//! use ispy_trace::{apps, artifact};
//!
//! let model = apps::kafka().scaled_down(20);
//! let program = model.generate();
//! let trace = program.record_trace(model.default_input(), 5_000);
//! let bytes = artifact::recording_to_bytes(&program, &trace);
//!
//! let live = run(&program, &trace, &SimConfig::default(), RunOptions::default());
//! let replayed =
//!     replay::replay_stream(bytes.as_slice(), &SimConfig::default(), RunOptions::default())
//!         .unwrap();
//! assert_eq!(replayed.name, "kafka");
//! assert_eq!(replayed.result, live);
//! ```

use crate::config::SimConfig;
use crate::engine::{run_streaming, RunOptions};
use crate::metrics::SimResult;
use ispy_artifact::ArtifactError;
use ispy_trace::artifact::open_recording_stream;
use std::io::Read;

/// What a replay produced: the identity of the recording plus the metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// The recorded program's name (the app label).
    pub name: String,
    /// The recorded trace's name.
    pub trace_name: String,
    /// The simulation result, identical to a run over the live recording.
    pub result: SimResult,
}

/// Replays a recording off a byte stream without materializing the trace:
/// the program sections decode up front, the event sections decode chunk by
/// chunk straight into [`run_streaming`]. Byte-identical to decoding the
/// whole recording and calling [`run`](crate::run) on it, in bounded memory
/// on input of any size. To replay a file, pass a buffered
/// [`File`](std::fs::File).
///
/// # Errors
///
/// Any [`ArtifactError`] from decoding — including corruption or truncation
/// discovered mid-stream, in which case no result is returned.
pub fn replay_stream<R: Read>(
    source: R,
    cfg: &SimConfig,
    opts: RunOptions<'_>,
) -> Result<ReplayOutcome, ArtifactError> {
    let (program, mut stream) = open_recording_stream(source)?;
    let trace_name = stream.name().to_string();
    let result = run_streaming(&program, &mut stream, cfg, opts)?;
    Ok(ReplayOutcome { name: program.name().to_string(), trace_name, result })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use ispy_trace::apps;
    use ispy_trace::artifact::{
        read_recording, recording_from_bytes, recording_to_bytes, write_recording,
    };

    fn recording() -> (ispy_trace::Program, ispy_trace::Trace) {
        let model = apps::tomcat().scaled_down(30);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), 6_000);
        (program, trace)
    }

    #[test]
    fn replay_matches_live_run_exactly() {
        let (program, trace) = recording();
        let cfg = SimConfig::default();
        let live = run(&program, &trace, &cfg, RunOptions::default());
        let bytes = recording_to_bytes(&program, &trace);
        let out = replay_stream(bytes.as_slice(), &cfg, RunOptions::default()).unwrap();
        assert_eq!(out.name, program.name());
        assert_eq!(out.trace_name, trace.name());
        assert_eq!(out.result, live);
    }

    #[test]
    fn replay_from_file_round_trips() {
        let (program, trace) = recording();
        // Unique per-process dir: a fixed path collides when test binaries
        // run in parallel or two checkouts share a host.
        let dir = std::env::temp_dir().join(format!("ispy-replay-test-{}", std::process::id()));
        let path = dir.join("tomcat.itrace");
        write_recording(&program, &trace, &path).unwrap();
        let cfg = SimConfig::default();
        let (read_program, read_trace) = read_recording(&path).unwrap();
        let materialized = run(&read_program, &read_trace, &cfg, RunOptions::default());
        assert_eq!(materialized, run(&program, &trace, &cfg, RunOptions::default()));
        let file = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
        let streamed = replay_stream(file, &cfg, RunOptions::default()).unwrap();
        assert_eq!(streamed.name, read_program.name());
        assert_eq!(streamed.trace_name, read_trace.name());
        assert_eq!(streamed.result, materialized);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streamed_replay_matches_buffered_replay_exactly() {
        let (program, trace) = recording();
        let cfg = SimConfig::default();
        let bytes = recording_to_bytes(&program, &trace);
        let (decoded, decoded_trace) = recording_from_bytes(&bytes).unwrap();
        let buffered = run(&decoded, &decoded_trace, &cfg, RunOptions::default());
        let streamed = replay_stream(bytes.as_slice(), &cfg, RunOptions::default()).unwrap();
        assert_eq!(streamed.result, buffered);
    }

    #[test]
    fn truncated_stream_is_a_typed_error_not_a_partial_result() {
        let (program, trace) = recording();
        let bytes = recording_to_bytes(&program, &trace);
        let cut = &bytes[..bytes.len() - bytes.len() / 3];
        let err = replay_stream(cut, &SimConfig::default(), RunOptions::default()).unwrap_err();
        assert!(
            matches!(err, ArtifactError::Truncated { .. } | ArtifactError::SectionChecksum { .. }),
            "unexpected error class: {err:?}"
        );
    }

    #[test]
    fn corrupt_bytes_are_a_typed_error() {
        let err = replay_stream(
            b"definitely not an artifact container".as_slice(),
            &SimConfig::default(),
            RunOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, ArtifactError::BadMagic);
    }
}
