//! In-memory spans recorded from the benchmark's own files, around
//! its calls into each layer, and written out as Chrome-trace JSON when
//! the run ends. With the tracer off every call is a single branch.

use std::fmt::Write as _;
use std::time::Instant;

/// One completed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// The service request the span belongs to, when it has exactly one.
    pub req: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span; `None` inside when the tracer is off or full.
#[must_use]
pub struct Open(Option<u32>);

pub struct Tracer {
    on: bool,
    paused: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

/// Upper bound on recorded spans: keeps the buffer (reserved up front,
/// so recording never reallocates) and the trace file small.
const CAPACITY: usize = 1 << 18;

impl Tracer {
    pub fn off() -> Self {
        Self {
            on: false,
            paused: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    pub fn on() -> Self {
        Self {
            on: true,
            paused: false,
            origin: Instant::now(),
            spans: Vec::with_capacity(CAPACITY),
            stack: Vec::with_capacity(16),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Whether this tracer records at all (paused or not).
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Stops (or resumes) recording; call only while no span is open.
    pub fn pause(&mut self, paused: bool) {
        debug_assert!(self.stack.is_empty(), "pausing inside an open span");
        self.paused = paused;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on || self.paused {
            return Open(None);
        }
        if self.spans.len() == CAPACITY {
            self.dropped += 1;
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req: None });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        self.end_req(open, None);
    }

    /// Ends the span and tags it with the request it served.
    pub fn end_req(&mut self, open: Open, req: Option<u64>) {
        if let Open(Some(id)) = open {
            let now = self.now_ns();
            let span = &mut self.spans[id as usize];
            span.end_ns = now;
            span.req = req;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
    }

    /// Chrome `chrome://tracing` / Perfetto JSON: one complete ("X")
    /// event per span on a single track, span index, parent index and
    /// request id in `args`. At most `per_name` spans of each name are
    /// written (the first ones), so every layer shows and the file stays
    /// small.
    pub fn chrome_json(&self, per_name: usize) -> String {
        let mut written: Vec<(&'static str, usize)> = Vec::new();
        let mut out = String::from("[\n");
        out.push_str(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"benchmark client\"}}",
        );
        for (id, s) in self.spans.iter().enumerate() {
            let count = match written.iter_mut().find(|(name, _)| *name == s.name) {
                Some((_, count)) => count,
                None => {
                    written.push((s.name, 0));
                    &mut written.last_mut().expect("just pushed").1
                }
            };
            *count += 1;
            if *count > per_name {
                continue;
            }
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.req {
                let _ = write!(out, ",\"req\":{r}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn spans_nest_and_export_as_loadable_chrome_json() {
        let mut t = Tracer::on();
        let outer = t.begin("service.drain");
        let inner = t.begin("exec.virtual");
        t.end(inner);
        t.end_req(outer, Some(7));
        for _ in 0..3 {
            let lone = t.begin("service.submit");
            t.end(lone);
        }

        let spans = t.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].req, Some(7));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.durations("exec.virtual").len(), 1);

        let doc = json::parse(&t.chrome_json(2)).expect("trace is valid JSON");
        let events = doc.items();
        assert_eq!(events.len(), 5, "a metadata record, then at most two spans per name");
        assert_eq!(events[1].get("ph").and_then(json::Value::as_str), Some("X"));
        let args = events[2].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(json::Value::as_f64), Some(0.0));
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("req")).and_then(json::Value::as_f64),
            Some(7.0)
        );
    }

    #[test]
    fn off_and_paused_tracers_record_nothing() {
        let mut t = Tracer::off();
        let s = t.begin("x");
        t.end(s);
        assert!(t.spans().is_empty() && !t.is_on());
        let mut p = Tracer::on();
        p.pause(true);
        let s = p.begin("x");
        p.end(s);
        p.pause(false);
        let s = p.begin("y");
        p.end(s);
        assert_eq!(p.durations("x").len() + p.durations("y").len(), 1);
        assert_eq!(json::parse(&t.chrome_json(10)).expect("valid").items().len(), 1);
    }
}
