//! In-memory span recorder: each span holds its name, start, end, parent
//! span, job id, benchmark phase and an optional work count. Spans are
//! recorded from the benchmark's own files, around each call into a layer;
//! a layer's self time is its span's duration minus the part of it that
//! child spans cover.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which part of a benchmark run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Building the workload's inputs (repeated, see `bench::SETUPS`).
    Setup,
    /// The timed repetitions.
    Timed,
}

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the part before the first dot.
    pub name: &'static str,
    /// Job id (`app/config-point`), empty outside a job.
    pub job: String,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to the start until the span closes).
    pub end_ns: u64,
    /// Index of the enclosing span, which may sit on another thread.
    pub parent: Option<usize>,
    /// Phase the span was opened in.
    pub phase: Phase,
    /// Work done inside the span (blocks, bytes, ops), 0 when not counted.
    pub work: u64,
}

impl Span {
    /// The layer the span times.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// The recorder. Disabled spans cost one atomic load.
pub struct Tracer {
    on: AtomicBool,
    phase: AtomicU8,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A disabled recorder in the set-up phase.
    pub fn new() -> Self {
        Tracer {
            on: AtomicBool::new(false),
            phase: AtomicU8::new(0),
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off for spans opened from now on.
    pub fn enable(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Sets the phase stamped on spans opened from now on.
    pub fn set_phase(&self, phase: Phase) {
        self.phase.store(phase as u8, Ordering::Relaxed);
    }

    /// Opens a span whose parent is the innermost open span on this thread.
    pub fn span(&self, name: &'static str, job: &str) -> SpanGuard<'_> {
        let parent = OPEN.with(|s| s.borrow().last().copied());
        self.span_under(parent, name, job)
    }

    /// Opens a span under an explicit parent, for work a layer runs on
    /// another thread (the adaptive replanner's helper thread).
    pub fn span_under(
        &self,
        parent: Option<usize>,
        name: &'static str,
        job: &str,
    ) -> SpanGuard<'_> {
        if !self.on.load(Ordering::Relaxed) {
            return SpanGuard { tracer: None, idx: 0 };
        }
        let phase = if self.phase.load(Ordering::Relaxed) == Phase::Timed as u8 {
            Phase::Timed
        } else {
            Phase::Setup
        };
        let now = self.now_ns();
        let idx = {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            spans.push(Span {
                name,
                job: job.to_string(),
                start_ns: now,
                end_ns: now,
                parent,
                phase,
                work: 0,
            });
            spans.len() - 1
        };
        OPEN.with(|s| s.borrow_mut().push(idx));
        SpanGuard { tracer: Some(self), idx }
    }

    /// Every span recorded so far, leaving the recorder empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span recorder poisoned"))
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    idx: usize,
}

impl SpanGuard<'_> {
    /// The span's index, to parent spans opened on other threads.
    pub fn id(&self) -> Option<usize> {
        self.tracer.map(|_| self.idx)
    }

    /// Records the work done inside the span.
    pub fn work(&self, n: u64) {
        if let Some(t) = self.tracer {
            t.spans.lock().expect("span recorder poisoned")[self.idx].work += n;
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(t) = self.tracer else { return };
        let now = t.now_ns();
        if let Ok(mut spans) = t.spans.lock() {
            spans[self.idx].end_ns = now;
        }
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&i| i == self.idx) {
                s.remove(pos);
            }
        });
    }
}

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover (clipped to the span). Children that overlap
/// each other, such as work on another thread, are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Writes spans as JSON to `path`, creating its directory.
pub fn write_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, to_json(spans))
}

/// Renders spans (with their self times) as a JSON array.
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("[\n");
    for (i, (s, own)) in spans.iter().zip(&selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let phase = match s.phase {
            Phase::Setup => "setup",
            Phase::Timed => "timed",
        };
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"job\": \"{}\", \"phase\": \"{phase}\", \
             \"parent\": {parent}, \"start_us\": {:.3}, \"end_us\": {:.3}, \
             \"self_us\": {:.3}, \"work\": {}}}{}\n",
            s.name,
            s.job,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            *own as f64 / 1e3,
            s.work,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, job: String::new(), start_ns, end_ns, parent, phase: Phase::Timed, work: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span("bench.rep", 0, 100, None),
            span("core.plan", 10, 30, Some(0)),
            span("isa.compile", 20, 50, Some(0)), // overlaps its sibling
            span("sim.replay", 90, 120, Some(0)), // runs past its parent
            span("profile.fold", 12, 28, Some(1)), // grandchild
        ];
        let selfs = self_times(&spans);
        // Children cover [10, 50] and [90, 100]: 50 of the parent's 100.
        assert_eq!(selfs[0], 50);
        // The grandchild only reduces its own parent.
        assert_eq!(selfs[1], 20 - 16);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 30);
        assert_eq!(selfs[4], 16);
        assert_eq!(spans[1].layer(), "core");
    }

    #[test]
    fn recorder_nests_spans_and_skips_when_disabled() {
        let t = Tracer::new();
        drop(t.span("core.plan", "off"));
        t.enable(true);
        t.set_phase(Phase::Timed);
        {
            let outer = t.span("bench.rep", "");
            let id = outer.id();
            let inner = t.span("sim.replay", "app/job");
            inner.work(7);
            drop(inner);
            // A span opened on another thread under an explicit parent.
            std::thread::scope(|s| {
                s.spawn(|| drop(t.span_under(id, "core.plan", "app/w0")));
            });
        }
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].work, 7);
        assert_eq!(spans[1].job, "app/job");
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.phase == Phase::Timed && s.end_ns >= s.start_ns));
        assert!(to_json(&spans).contains("\"name\": \"sim.replay\""));
    }
}
