//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer's public functions (layer = crate). They are kept in
//! memory and written to `target/benchmark/trace-<workload>.json` when the
//! workload ends. A layer's self time is its spans' duration minus the part
//! their child spans cover. With tracing off (`--trace 0`, the run that
//! measures the end-to-end metrics) `time` only reads the clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// The layers spans are attributed to: one per crate the benchmark calls
/// into, plus `bench` for the harness's own phases (set-up, timed region,
/// checks), whose self time is what no layer accounts for.
pub const LAYERS: [&str; 11] = [
    "xml",
    "graph",
    "core",
    "partition",
    "query",
    "text",
    "store",
    "maintenance",
    "build",
    "server",
    "bench",
];

#[derive(Debug)]
struct Span {
    name: &'static str,
    layer: &'static str,
    /// What the call was doing it for (`setup`, `probe`, `insert_link`, …).
    op: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Handle of an open span (see [`Tracer::begin`]).
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str, on: bool) -> Self {
        Tracer {
            on,
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span that later spans nest under, until [`Tracer::end`].
    pub fn begin(&mut self, layer: &'static str, name: &'static str, op: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            layer,
            op,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        // Spans close innermost-first; tolerate a skipped `end` by closing
        // everything opened after this one too.
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Times one call into a layer, as a leaf span when tracing is on.
    /// The duration is returned either way: per-layer metrics are wall
    /// times of public calls.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.begin(layer, name, op);
        let t = Instant::now();
        let out = f();
        let elapsed = t.elapsed();
        self.end(id);
        (out, elapsed)
    }

    /// Self time per layer, in milliseconds: each span's duration minus
    /// the durations of its direct children, summed by the span's layer.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.entry(s.layer).or_default() += own as f64 / 1e6;
        }
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as one JSON document. Names are `'static`
    /// identifiers from this crate, so they need no escaping.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::with_capacity(64 + self.spans.len() * 120);
        let _ = write!(s, "{{\"workload\":\"{}\",\"spans\":[", self.workload);
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "\n{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"workload\":\"{}\",\"op\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                sp.name, sp.layer, self.workload, sp.op, sp.start_ns, sp.end_ns
            );
        }
        s.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new("test", true);
        let wall = Instant::now();
        let outer = t.begin("bench", "outer", "x");
        t.time("core", "inner", "x", || {
            std::thread::sleep(Duration::from_millis(5))
        });
        std::thread::sleep(Duration::from_millis(2));
        t.end(outer);
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let by = t.self_ms_by_layer();
        assert!(by["core"] >= 5.0 && by["bench"] >= 2.0, "{by:?}");
        // Were the child's 5 ms not subtracted from the parent, the self
        // times would add up to more than the wall time they tile.
        assert!(
            by["bench"] + by["core"] <= wall_ms,
            "{by:?} in {wall_ms} ms"
        );
        assert_eq!(t.span_count(), 2);
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut t = Tracer::new("test", false);
        let id = t.begin("bench", "outer", "x");
        let (v, d) = t.time("core", "inner", "x", || {
            std::thread::sleep(Duration::from_millis(1));
            7
        });
        t.end(id);
        assert_eq!(v, 7);
        assert!(d >= Duration::from_millis(1));
        assert_eq!(t.span_count(), 0);
    }

    #[test]
    fn written_trace_is_valid_json() {
        let mut t = Tracer::new("test", true);
        let a = t.begin("bench", "a", "x");
        t.time("xml", "b", "y", || ());
        t.end(a);
        let path = std::env::temp_dir().join(format!("hopi-trace-{}.json", std::process::id()));
        t.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let json = hopi_server::json::parse(&text).expect("valid JSON");
        let spans = json.get("spans").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(spans[1].get("layer").and_then(|p| p.as_str()), Some("xml"));
    }
}
