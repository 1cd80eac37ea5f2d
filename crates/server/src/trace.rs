//! [`TraceObserver`]: stream VM events as JSONL.
//!
//! Implements [`dse_runtime::Observer`], so it sees what the dependence
//! profiler sees: every sited access, candidate-loop event and heap event
//! of a *serial* execution (parallel regions run unobserved by design).
//! Each event becomes one compact JSON object per line, suitable for
//! `jq`-style post-processing. Event shapes:
//!
//! ```text
//! {"ev":"access","site":12,"kind":"load","addr":70656,"width":8,"sp":4206592}
//! {"ev":"loop","event":"begin","loop":0,"sp":4206400,"work":1523}
//! {"ev":"alloc","id":3,"base":8392704,"size":800,"pc":214}
//! {"ev":"free","id":3,"base":8392704,"size":800}
//! ```

use dse_ir::bytecode::LoopEvent;
use dse_ir::sites::{AccessKind, SiteId};
use dse_runtime::{Allocation, Observer};
use std::io::Write;

/// Observer that writes one JSON object per event to `out`.
///
/// Writing is infallible from the VM's perspective (the [`Observer`]
/// methods return `()`); the first I/O error is latched, subsequent events
/// are dropped, and [`TraceObserver::finish`] surfaces the error.
pub struct TraceObserver<W: Write> {
    out: W,
    events: u64,
    err: Option<std::io::Error>,
}

impl<W: Write> TraceObserver<W> {
    /// Wraps a sink. Callers that care about syscall overhead should pass
    /// a [`std::io::BufWriter`].
    pub fn new(out: W) -> TraceObserver<W> {
        TraceObserver {
            out,
            events: 0,
            err: None,
        }
    }

    /// Number of events successfully written so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Flushes and returns the sink, or the first latched write error.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered while writing or flushing.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.err {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    fn emit(&mut self, f: impl FnOnce(&mut W) -> std::io::Result<()>) {
        if self.err.is_some() {
            return;
        }
        match f(&mut self.out) {
            Ok(()) => self.events += 1,
            Err(e) => self.err = Some(e),
        }
    }
}

impl<W: Write> Observer for TraceObserver<W> {
    fn on_access(&mut self, site: SiteId, kind: AccessKind, addr: u64, width: u32, sp: u64) {
        let kind = match kind {
            AccessKind::Load => "load",
            AccessKind::Store => "store",
        };
        self.emit(|out| {
            writeln!(
                out,
                "{{\"ev\":\"access\",\"site\":{site},\"kind\":\"{kind}\",\
                 \"addr\":{addr},\"width\":{width},\"sp\":{sp}}}"
            )
        });
    }

    fn on_loop(&mut self, ev: LoopEvent, loop_id: u32, sp: u64, work: u64) {
        let ev = match ev {
            LoopEvent::Begin => "begin",
            LoopEvent::IterStart => "iter_start",
            LoopEvent::End => "end",
        };
        self.emit(|out| {
            writeln!(
                out,
                "{{\"ev\":\"loop\",\"event\":\"{ev}\",\"loop\":{loop_id},\
                 \"sp\":{sp},\"work\":{work}}}"
            )
        });
    }

    fn on_alloc(&mut self, alloc: Allocation, pc: u32) {
        self.emit(|out| {
            writeln!(
                out,
                "{{\"ev\":\"alloc\",\"id\":{},\"base\":{},\"size\":{},\"pc\":{pc}}}",
                alloc.id, alloc.base, alloc.size
            )
        });
    }

    fn on_free(&mut self, alloc: Allocation) {
        self.emit(|out| {
            writeln!(
                out,
                "{{\"ev\":\"free\",\"id\":{},\"base\":{},\"size\":{}}}",
                alloc.id, alloc.base, alloc.size
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_telemetry::Json;

    #[test]
    fn events_emit_parseable_jsonl() {
        let mut obs = TraceObserver::new(Vec::new());
        obs.on_access(3, AccessKind::Store, 4096, 8, 1024);
        obs.on_loop(LoopEvent::Begin, 1, 2048, 57);
        obs.on_alloc(
            Allocation {
                base: 8192,
                size: 64,
                block: 64,
                id: 9,
            },
            12,
        );
        obs.on_free(Allocation {
            base: 8192,
            size: 64,
            block: 64,
            id: 9,
        });
        assert_eq!(obs.events(), 4);
        let bytes = obs.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("ev").unwrap().as_str(), Some("access"));
        assert_eq!(first.get("kind").unwrap().as_str(), Some("store"));
        assert_eq!(first.get("addr").unwrap().as_i64(), Some(4096));
        let heap = Json::parse(lines[2]).unwrap();
        assert_eq!(heap.get("size").unwrap().as_i64(), Some(64));
        assert_eq!(heap.get("pc").unwrap().as_i64(), Some(12));
    }

    #[test]
    fn write_errors_are_latched() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("sink closed"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut obs = TraceObserver::new(Failing);
        obs.on_loop(LoopEvent::End, 0, 0, 0);
        obs.on_loop(LoopEvent::End, 0, 0, 0);
        assert_eq!(obs.events(), 0);
        assert!(obs.finish().is_err());
    }
}
