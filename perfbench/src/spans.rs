//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out as JSON when the traced run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call: `parent` is the span that was open when it began.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// A span recorder. Spans nest through [`Tracer::span`]'s closure,
/// which receives the tracer back to open children. A recorder made
/// with [`Tracer::off`] runs the closures and records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Durations in seconds of every closed span named `name`, in
    /// start order.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// A span's duration minus the time its direct children cover.
    pub fn self_secs(&self, span: &Span) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(span.id))
            .map(Span::secs)
            .sum();
        span.secs() - children
    }

    /// The spans as a JSON array (times in seconds since the tracer
    /// started).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {:?}, \
                 \"end_s\": {:?}, \"self_s\": {:?}}}{}",
                s.id,
                s.name,
                s.start.as_secs_f64(),
                s.end.as_secs_f64(),
                self.self_secs(s),
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        let v = t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(20)));
            std::thread::sleep(Duration::from_millis(5));
            7
        });
        assert_eq!(v, 7);
        let outer = t.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = t.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        let own = t.self_secs(outer);
        assert!(own >= 0.004 && own < outer.secs() - 0.019, "{own}");
        assert_eq!(t.secs("inner").len(), 1);
        assert!(t.to_json().contains("\"parent\": 0"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("a", |t| t.span("b", |_| 3)), 3);
        assert!(t.secs("a").is_empty() && t.secs("b").is_empty());
    }
}
