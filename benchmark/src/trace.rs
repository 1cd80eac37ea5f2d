//! Spans recorded by the benchmark's own code around its calls into the
//! layers: name, start, end, parent and operation id, kept in memory and
//! written out as Chrome-trace JSON when the workload ends. Every span is
//! timed (the callers want the duration either way); a disabled tracer
//! keeps no record, which is the whole cost of tracing from outside.

use dse_telemetry::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. `parent` indexes the same tracer's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Index into [`Tracer::ops`]: spans of one operation share it.
    pub op: usize,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The span recorder of the benchmark's one measuring thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Program and kind of each operation (`("md5", "x2")`,
    /// `("lbm", "run_warm")`).
    pub ops: Vec<(String, &'static str)>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            ops: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as the root span of a new operation on `program`; returns
    /// its result and wall milliseconds.
    pub fn op<T>(
        &mut self,
        name: &'static str,
        program: &str,
        kind: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        if self.enabled {
            self.ops.push((program.to_string(), kind));
        }
        self.span(name, f)
    }

    /// Runs `f` inside a span that is a child of the innermost open one;
    /// returns its result and wall milliseconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                op: self.ops.len().saturating_sub(1),
            });
            self.open.push(idx);
        }
        let out = f(self);
        let end_ns = self.now_ns();
        if self.enabled {
            self.open.pop();
            self.spans[idx].end_ns = end_ns;
        }
        (out, (end_ns - start_ns) as f64 / 1e6)
    }

    /// Records an interval measured by someone else (the daemon reports
    /// per-phase nanoseconds, not timestamps) as a child of the innermost
    /// open span, laid out back to back from `start_ns`. Returns its end.
    pub fn child_interval(&mut self, name: &'static str, start_ns: u64, dur_ns: u64) -> u64 {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + dur_ns,
                parent: self.open.last().copied(),
                op: self.ops.len().saturating_sub(1),
            });
        }
        start_ns + dur_ns
    }

    /// Start of the innermost open span.
    pub fn open_start_ns(&self) -> u64 {
        self.open.last().map_or(0, |&i| self.spans[i].start_ns)
    }
}

/// Per span name: total self time (duration minus children) in ms, and the
/// span count.
pub fn self_times(t: &Tracer) -> BTreeMap<&'static str, (f64, usize)> {
    let mut child_ms = vec![0.0; t.spans.len()];
    for s in &t.spans {
        if let Some(p) = s.parent {
            child_ms[p] += s.ms();
        }
    }
    let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for (s, c) in t.spans.iter().zip(&child_ms) {
        let e = out.entry(s.name).or_default();
        e.0 += s.ms() - c;
        e.1 += 1;
    }
    out
}

/// The ledger residual: over all operations, the root spans' self time
/// (wall time no layer span accounts for) as a share of their duration.
pub fn residual_share(t: &Tracer) -> f64 {
    let (mut total, mut covered) = (0.0, 0.0);
    for s in &t.spans {
        match s.parent {
            None => total += s.ms(),
            Some(p) if t.spans[p].parent.is_none() => covered += s.ms(),
            Some(_) => {}
        }
    }
    crate::stats::ratio(total - covered, total)
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, microsecond timestamps.
pub fn chrome_trace(workload: &str, t: &Tracer) -> Json {
    let event = |(i, s): (usize, &Span)| {
        let label = t
            .ops
            .get(s.op)
            .map_or(String::new(), |(p, k)| format!("{p}/{k}"));
        let mut args = vec![
            ("span", Json::Int(i as i64)),
            ("op", Json::Int(s.op as i64)),
            ("label", Json::Str(label)),
        ];
        if let Some(p) = s.parent {
            args.push(("parent", Json::Int(p as i64)));
        }
        Json::obj(vec![
            ("name", Json::Str(s.name.to_string())),
            ("cat", Json::Str(workload.to_string())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Float(s.start_ns as f64 / 1e3)),
            ("dur", Json::Float((s.end_ns - s.start_ns) as f64 / 1e3)),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(1)),
            ("args", Json::obj(args)),
        ])
    };
    Json::obj(vec![
        (
            "traceEvents",
            Json::Arr(t.spans.iter().enumerate().map(event).collect()),
        ),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_one() {
        let mut t = Tracer::new(true, Instant::now());
        t.op("op", "a", "b", |t| {
            t.span("child", |t| t.span("grandchild", |_| ()));
            let start = t.open_start_ns();
            t.child_interval("reported", start, 1_000);
        });
        let parents: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("op", None),
                ("child", Some(0)),
                ("grandchild", Some(1)),
                ("reported", Some(0))
            ]
        );
        assert!(t.spans.iter().all(|s| s.op == 0 && s.end_ns >= s.start_ns));
        assert_eq!(t.ops, [("a".to_string(), "b")]);
        let doc = chrome_trace("w", &t).to_string();
        let back = Json::parse(&doc).expect("loadable");
        let events = back.get("traceEvents").and_then(Json::as_arr);
        assert_eq!(events.map(<[Json]>::len), Some(4));
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.ops.push(("a".to_string(), "b"));
        let ms = 1_000_000;
        for (name, start, end, parent) in [
            ("op", 0, 100, None),
            ("child", 10, 60, Some(0)),
            ("grandchild", 20, 50, Some(1)),
            ("reported", 60, 90, Some(0)),
        ] {
            t.spans.push(Span {
                name,
                start_ns: start * ms,
                end_ns: end * ms,
                parent,
                op: 0,
            });
        }
        let st = self_times(&t);
        assert_eq!(st["op"], (20.0, 1));
        assert_eq!(st["child"], (20.0, 1));
        assert_eq!(st["grandchild"], (30.0, 1));
        assert_eq!(st["reported"], (30.0, 1));
        assert!((residual_share(&t) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.op("op", "a", "b", |t| t.span("x", |_| 7).0).0, 7);
        assert!(t.spans.is_empty() && t.ops.is_empty());
    }
}
