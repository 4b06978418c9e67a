//! In-memory spans recorded by the benchmark's own code around each
//! call into a layer. Nothing inside the program is instrumented: a
//! span covers exactly one public call (or, for an asynchronous
//! request, the interval from its issue to its harvest).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json;

/// One recorded span; times are nanoseconds from the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span, closed by [`Recorder::end`].
#[must_use = "close the span with Recorder::end"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

/// A single-threaded span recorder. When disabled, `begin`/`end` only
/// read the clock, so the untraced and traced runs execute the same
/// benchmark code.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    next_id: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        Open { id, parent, name, start_ns: self.now_ns() }
    }

    /// Close `open` (spans close innermost first) and return its
    /// duration in nanoseconds, whether or not recording is enabled.
    pub fn end(&mut self, open: Open) -> u64 {
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.id), "spans close innermost first");
        if self.enabled {
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        }
        end_ns.saturating_sub(open.start_ns)
    }

    /// Record a finished span with explicit times (an asynchronous
    /// interval that does not nest, such as a request in flight).
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            let id = self.next_id;
            self.next_id += 1;
            let parent = self.stack.last().copied();
            self.spans.push(Span { id, parent, name, start_ns, end_ns });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Take the recorded spans, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its child spans cover (overlapping children count
/// once; children are clipped to the parent's interval). Returned in
/// the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else { return s.duration_ns() };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals: `(count, total_ns, self_ns)`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, st) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += st;
    }
    out
}

/// Durations in nanoseconds of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
}

/// The span dump as chrome://tracing JSON ("complete" events, times in
/// microseconds), with each span's id and parent in its args.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            json::quote(s.name),
            json::num(s.start_ns as f64 / 1e3),
            json::num(s.duration_ns() as f64 / 1e3),
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        ));
    }
    out.push_str("]}");
    out
}
