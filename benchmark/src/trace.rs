//! Spans recorded from the benchmark's own side of each layer boundary,
//! kept in memory and written out when the run ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;

/// One timed call. Spans of one request share `id`; `parent` names the span
/// (same `id`) that caused this one.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        id: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            parent,
            id,
            start_ns,
            end_ns,
        });
    }

    /// Mean duration and mean self time (duration minus the part covered by
    /// child spans) per span name, in nanoseconds, with the span count.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns: HashMap<(&'static str, u64), u64> = HashMap::new();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                *child_ns.entry((parent, s.id)).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for s in &self.spans {
            let total = s.end_ns - s.start_ns;
            let children = child_ns.get(&(s.name, s.id)).copied().unwrap_or(0);
            let stats = out.entry(s.name).or_default();
            stats.count += 1;
            stats.total_ns += total;
            stats.self_ns += total.saturating_sub(children);
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanStats {
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }

    pub fn mean_self_ns(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::default();
        for id in 0..2 {
            t.record("publish", None, id, 0, 100);
            t.record("phase1", Some("publish"), id, 10, 40);
            t.record("phase2", Some("publish"), id, 40, 60);
        }
        let s = t.summary();
        assert_eq!(s["publish"].count, 2);
        assert_eq!(s["publish"].mean_ns(), 100.0);
        assert_eq!(s["publish"].mean_self_ns(), 50.0);
        assert_eq!(s["phase1"].mean_self_ns(), 30.0);
    }
}
