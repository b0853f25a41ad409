//! Spans recorded by the benchmark's own code around calls into each
//! layer (nothing inside the program is instrumented). Kept in memory
//! while a traced pass runs, written out when it ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use serde_json::{Map, Value};

/// One timed interval. `parent` indexes into the same span list; spans of
/// one operation share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An append-only span list against one time origin. Each load thread owns
/// one; [`Tracer::absorb`] stitches them together afterwards.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end]` and returns the span's index (a parent handle).
    pub fn push(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push_ns(layer, name, op, parent, start_ns, end_ns)
    }

    /// [`Tracer::push`] for an interval already expressed against the
    /// origin — used to place replay-attributed children inside a wait.
    pub fn push_ns(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            layer,
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Moves a span's end: a root is opened before its children exist and
    /// closed once the last of them is recorded.
    pub fn close(&mut self, span: usize, end: Instant) {
        self.spans[span].end_ns = self.ns(end);
    }

    /// Appends another thread's spans, re-basing their parent handles.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. A span counts only for the part of it
/// that lies inside its parent (a parent always precedes its children in
/// the list), so one that overruns neither pushes its parent's self time
/// below zero nor keeps the overrun for itself: the self times under a
/// root always sum to the root's duration.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut inside: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
    for s in spans {
        let (mut start, mut end) = (s.start_ns, s.end_ns.max(s.start_ns));
        if let Some(p) = s.parent {
            let (lo, hi) = inside[p];
            (start, end) = (start.clamp(lo, hi), end.clamp(lo, hi));
        }
        inside.push((start, end));
    }
    let mut own: Vec<u64> = inside.iter().map(|(start, end)| end - start).collect();
    for (s, (start, end)) in spans.iter().zip(&inside) {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(end - start);
        }
    }
    own
}

/// Per-layer totals of a traced pass: `(spans, self-time ns)`.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.layer).or_default();
        e.0 += 1;
        e.1 += own;
    }
    out
}

/// Most spans a trace file holds; aggregates always cover every span.
const MAX_SPANS_WRITTEN: usize = 20_000;

/// The trace file's JSON: the first [`MAX_SPANS_WRITTEN`] spans plus the
/// per-layer self-time totals over all of them.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    let mut layers = Map::new();
    for (layer, (count, self_ns)) in layer_self_times(spans) {
        let mut m = Map::new();
        m.insert("spans".into(), count.into());
        m.insert("self_ns".into(), self_ns.into());
        layers.insert(layer.into(), Value::Object(m));
    }
    let written: Vec<Value> = spans
        .iter()
        .take(MAX_SPANS_WRITTEN)
        .enumerate()
        .map(|(id, s)| {
            let mut m = Map::new();
            m.insert("id".into(), id.into());
            // A parent past the cut would dangle; such spans read as roots.
            m.insert(
                "parent".into(),
                match s.parent {
                    Some(p) if p < MAX_SPANS_WRITTEN => p.into(),
                    _ => Value::Null,
                },
            );
            m.insert("op".into(), s.op.into());
            m.insert("layer".into(), s.layer.into());
            m.insert("name".into(), s.name.into());
            m.insert("start_ns".into(), s.start_ns.into());
            m.insert("end_ns".into(), s.end_ns.into());
            Value::Object(m)
        })
        .collect();
    let mut root = Map::new();
    root.insert("workload".into(), workload.into());
    root.insert("spans_recorded".into(), spans.len().into());
    root.insert("spans_written".into(), written.len().into());
    root.insert("layer_self_time".into(), Value::Object(layers));
    root.insert("spans".into(), Value::Array(written));
    Value::Object(root)
}

/// Writes `trace_<workload>.json` under `dir`.
pub fn write(dir: &Path, workload: &str, spans: &[Span]) -> Result<(), String> {
    let path = dir.join(format!("trace_{workload}.json"));
    let text = serde_json::to_string(&to_json(workload, spans)).expect("values serialize");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_under_a_root_sum_to_its_duration() {
        let mut t = Tracer::new(Instant::now());
        let op = t.push_ns("daemon.serve", "op", 1, None, 0, 1000);
        t.push_ns("net.wire", "encode", 1, Some(op), 0, 300);
        let wait = t.push_ns("daemon.serve", "wait", 1, Some(op), 300, 900);
        // Grandchildren reduce the wait, not the op.
        t.push_ns("net.wire", "srv.decode", 1, Some(wait), 300, 400);
        t.push_ns("core.server", "srv.handle", 1, Some(wait), 400, 450);
        // A child overrunning its parent counts only for the part inside
        // it (850..900), on both sides of the subtraction.
        t.push_ns("net.wire", "srv.encode", 1, Some(wait), 850, 2000);
        let own = self_times(t.spans());
        assert_eq!(own, vec![100, 300, 400, 100, 50, 50]);
        assert_eq!(own.iter().sum::<u64>(), 1000, "self times sum to the op");
        let layers = layer_self_times(t.spans());
        assert_eq!(layers["daemon.serve"], (2, 500));
        assert_eq!(layers["core.server"], (1, 50));
        assert_eq!(layers["net.wire"], (3, 300 + 100 + 50));
    }

    #[test]
    fn absorbing_a_thread_rebases_parent_handles() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.push_ns("x", "root", 0, None, 0, 10);
        let mut b = Tracer::new(epoch);
        let root = b.push_ns("x", "root", 1, None, 0, 10);
        b.push_ns("y", "child", 1, Some(root), 2, 6);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(self_times(a.spans()), vec![10, 6, 4]);
        let json = to_json("w", a.spans());
        assert_eq!(json["spans_recorded"].as_u64(), Some(3));
        assert_eq!(json["spans"][2]["parent"].as_u64(), Some(1));
        assert_eq!(json["layer_self_time"]["y"]["self_ns"].as_u64(), Some(4));
    }
}
