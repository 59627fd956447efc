//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer of the program in
//! a named span (name, start, end, parent, optional burst/request id).
//! Spans stay in memory and are written once at exit, as plain JSON and
//! as a Chrome trace (`chrome://tracing`, Perfetto). A disabled recorder
//! only runs the closures, so the untraced run shares the same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub id: Option<u64>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        id: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: 0.0,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Seconds since the recorder was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.end_s - s.start_s)
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover (children never overlap: one thread records).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_s - s.start_s;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += s.end_s - s.start_s - c;
        }
        out
    }

    /// Share of `[0, wall_s]` covered by root spans.
    pub fn coverage(&self, wall_s: f64) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_s - s.start_s)
            .sum();
        covered / wall_s
    }

    /// Writes `<stem>.spans.json` and `<stem>.chrome.json` under `dir`.
    pub fn write(&self, dir: &Path, stem: &str, wall_s: f64) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut spans = String::from("{\"wall_s\": ");
        let _ = write!(spans, "{wall_s}, \"spans\": [");
        let mut chrome = String::from("{\"traceEvents\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let id = s.id.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                spans,
                "{sep}{{\"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}, \"id\": {id}}}",
                s.name, s.start_s, s.end_s
            );
            let _ = write!(
                chrome,
                "{sep}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"parent\": {parent}, \"id\": {id}}}}}",
                s.name,
                s.start_s * 1e6,
                (s.end_s - s.start_s) * 1e6
            );
        }
        spans.push_str("\n], \"self_s\": {");
        for (i, (name, t)) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(spans, "{sep}\"{name}\": {t}");
        }
        spans.push_str("\n}}\n");
        chrome.push_str("\n]}\n");
        std::fs::write(dir.join(format!("{stem}.spans.json")), spans)?;
        std::fs::write(dir.join(format!("{stem}.chrome.json")), chrome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.span("outer", None, |tr| {
            tr.span("inner", Some(7), |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let st = tr.self_times();
        assert!(st["inner"] >= 0.02);
        assert!(st["outer"] < st["inner"]);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[1].id, Some(7));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", None, |_| 3), 3);
        assert!(tr.spans().is_empty());
    }
}
