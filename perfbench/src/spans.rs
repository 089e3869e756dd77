//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the recorder
//! was created), the index of its parent span and a request id. Spans
//! stay in memory while the benchmark runs and are written out as TSV
//! when it ends.
//!
//! Some layers are reached only inside another layer's call (a rebuild
//! inside a `train`, an encode inside `write_atomic`). Those are timed on
//! a twin call made outside the parent and attached to it as a child, so
//! a child need not lie inside its parent's interval. A span's *self
//! time* is therefore its duration minus its children's summed
//! durations, clamped to `[0, duration]`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span; returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        request: u64,
    ) -> u32 {
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        idx
    }

    /// Opens a span that [`Tracer::end`] closes; children recorded in
    /// between can name it as their parent.
    pub fn begin(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, idx: u32) {
        let end = self.ns(Instant::now());
        self.spans[idx as usize].end_ns = end;
    }

    /// Runs `f` inside a span; returns its result and the span index.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        (r, self.record(name, start, end, parent, request))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Self times grouped by span name, in nanoseconds.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            out.entry(s.name).or_default().push(t as f64);
        }
        out
    }

    /// Writes every span as one TSV row: name, start, end, parent (-1
    /// for a root), request.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name\tstart_ns\tend_ns\tparent\trequest")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        w.flush()
    }
}

/// Runs `f` inside a span when a recorder is given, else just runs it
/// (the span index is then [`ROOT`]).
pub fn maybe<R>(
    t: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: u32,
    request: u64,
    f: impl FnOnce() -> R,
) -> (R, u32) {
    match t.as_deref_mut() {
        Some(t) => t.time(name, parent, request, f),
        None => (f(), ROOT),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let a = t.origin;
        let root = t.record("root", a, a + Duration::from_nanos(100), ROOT, 0);
        t.record("child", a, a + Duration::from_nanos(30), root, 0);
        t.record("child", a, a + Duration::from_nanos(20), root, 0);
        assert_eq!(t.self_times_ns(), vec![50, 30, 20]);
        // Children longer than the parent clamp its self time at zero.
        t.record("child", a, a + Duration::from_nanos(90), root, 0);
        assert_eq!(t.self_times_ns()[0], 0);
    }
}
