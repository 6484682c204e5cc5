//! In-memory spans for the traced run. Each replayed request gets a root
//! span; each public layer call under it gets a child span. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover.

use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `"request"` for a root, `<layer>.<call>` (or a bare layer) below.
    pub name: &'static str,
    /// The request this span belongs to.
    pub request: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans against one epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a child span of `parent`.
    pub fn time<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let request = self.spans[parent].request;
        let id = self.open(name, Some(parent), request);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cursor) = (0u64, start);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Per span: nanoseconds of its interval that its direct children cover.
pub fn child_cover_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Per span: its duration minus the time its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .zip(child_cover_ns(spans))
        .map(|(s, cover)| s.duration_ns().saturating_sub(cover))
        .collect()
}

/// Render spans as one JSON document.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"request\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.request, s.name, s.start_ns, s.end_ns
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("request", None, 0, 100),
            span("text.parse", Some(0), 0, 10),
            span("opt.search", Some(0), 20, 80),
            // grandchild: counts against opt.search, not the root
            span("opt.inner", Some(2), 30, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 10, 40, 20]);
        assert_eq!(child_cover_ns(&spans)[0], 70);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span("request", None, 10, 110),
            span("a", Some(0), 0, 40),    // starts before the parent
            span("b", Some(0), 30, 60),   // overlaps a
            span("c", Some(0), 100, 130), // ends after the parent
        ];
        // covered: [10, 60) + [100, 110) = 60
        assert_eq!(child_cover_ns(&spans)[0], 60);
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn a_leaf_is_all_self_time_and_layers_split_on_the_dot() {
        let spans = vec![
            span("request", None, 0, 5),
            span("digest.catalog", Some(0), 1, 3),
        ];
        assert_eq!(self_times_ns(&spans), vec![3, 2]);
        assert_eq!(spans[1].layer(), "digest");
        assert_eq!(spans[0].layer(), "request");
    }

    #[test]
    fn tracer_nests_and_renders() {
        let mut t = Tracer::new();
        let root = t.open("request", None, 9);
        let x = t.time("exec", root, || 41 + 1);
        t.close(root);
        assert_eq!(x, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, 9);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert!(to_json(t.spans()).contains("\"name\":\"exec\",\"parent\":0"));
    }
}
