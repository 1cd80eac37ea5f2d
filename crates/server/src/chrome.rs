//! Trace exporters: Chrome trace-event JSON (Perfetto / `chrome://tracing`)
//! and folded-stack flamegraph text.
//!
//! The chrome export gives every runtime worker its own pid (so Perfetto
//! renders one swim-lane per worker), plus dedicated pids for the
//! compilation pipeline and the allocator backend. Span events
//! ([`dse_runtime::EventKind::is_span`]) become `X` complete events with
//! microsecond `ts`/`dur`; the rest become thread-scoped instants.
//!
//! The folded export aggregates the same events into
//! `frame;frame;... weight` lines (weights in microseconds), the input
//! format of the standard flamegraph toolchain: one stack per
//! (worker, loop) with the DOACROSS wait share split out as a child
//! frame, parked time per worker, and allocator scavenges.

use dse_runtime::{EventKind, TraceEvent, HEAP_TID};
use dse_telemetry::{Json, PhaseOutcome};
use std::collections::BTreeMap;

/// Synthetic pid of the pipeline track.
const PIPELINE_PID: i64 = 1;
/// Synthetic pid of the allocator-backend track.
const HEAP_PID: i64 = 2;
/// Worker `w` exports as pid `WORKER_PID_BASE + w`.
const WORKER_PID_BASE: i64 = 10;

fn pid_of(tid: u32) -> i64 {
    if tid == HEAP_TID {
        HEAP_PID
    } else {
        WORKER_PID_BASE + tid as i64
    }
}

fn us(ns: u64) -> Json {
    Json::Float(ns as f64 / 1000.0)
}

fn meta(pid: i64, name: &str) -> Json {
    Json::obj(vec![
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::Int(pid)),
        ("tid", Json::Int(0)),
        ("args", Json::obj(vec![("name", Json::Str(name.into()))])),
    ])
}

/// Event display name and kind-specific args.
fn describe(ev: &TraceEvent) -> (String, Vec<(&'static str, Json)>) {
    let a = Json::Int(ev.a as i64);
    let b = Json::Int(ev.b as i64);
    match ev.kind {
        EventKind::LoopRun => (format!("loop {}", ev.a), vec![("loop", a), ("iters", b)]),
        EventKind::Dispatch => (
            format!("dispatch loop {}", ev.a),
            vec![("loop", a), ("workers", b)],
        ),
        EventKind::Steal => ("steal".into(), vec![("loop", a), ("victim", b)]),
        EventKind::Park => ("park".into(), vec![]),
        EventKind::Wake => ("wake".into(), vec![("loop", a)]),
        EventKind::WaitSpan => ("wait".into(), vec![("loop", a), ("iter", b)]),
        EventKind::Post => ("post".into(), vec![("loop", a), ("iter", b)]),
        EventKind::Trap => ("trap".into(), vec![("pc", a), ("loop", b)]),
        EventKind::Refill => ("refill".into(), vec![("class", a), ("blocks", b)]),
        EventKind::Scavenge => ("scavenge".into(), vec![]),
    }
}

/// Renders runtime events plus the request's phase trace (one span per
/// phase, named `phase (hit|miss|dedup)`, at its offset from the store's
/// epoch) as a Chrome trace-event JSON document. `dropped` is the count of
/// events lost to ring overwrites, surfaced under `otherData` so a
/// truncated trace is never mistaken for a complete one.
pub fn chrome_trace(events: &[TraceEvent], pipeline: &[PhaseOutcome], dropped: u64) -> Json {
    let mut out: Vec<Json> = Vec::with_capacity(events.len() + pipeline.len() + 8);
    out.push(meta(PIPELINE_PID, "pipeline"));
    let mut seen_worker: BTreeMap<u32, ()> = BTreeMap::new();
    for ev in events {
        if ev.tid != HEAP_TID {
            seen_worker.insert(ev.tid, ());
        }
    }
    for &w in seen_worker.keys() {
        let name = if w == 0 {
            "worker 0 (master)".to_string()
        } else {
            format!("worker {w}")
        };
        out.push(meta(pid_of(w), &name));
    }
    if events.iter().any(|e| e.tid == HEAP_TID) {
        out.push(meta(HEAP_PID, "heap"));
    }
    for p in pipeline {
        let name = format!("{} ({})", p.phase, p.outcome.as_str());
        out.push(Json::obj(vec![
            ("name", Json::Str(name)),
            ("cat", Json::Str("pipeline".into())),
            ("ph", Json::Str("X".into())),
            ("pid", Json::Int(PIPELINE_PID)),
            ("tid", Json::Int(0)),
            ("ts", us(p.at.as_nanos() as u64)),
            ("dur", us(p.wall.as_nanos() as u64)),
        ]));
    }
    for ev in events {
        let (name, args) = describe(ev);
        let mut fields = vec![
            ("name", Json::Str(name)),
            ("cat", Json::Str("runtime".into())),
            (
                "ph",
                Json::Str(if ev.kind.is_span() { "X" } else { "i" }.into()),
            ),
            ("pid", Json::Int(pid_of(ev.tid))),
            ("tid", Json::Int(0)),
            ("ts", us(ev.ts_ns)),
        ];
        if ev.kind.is_span() {
            fields.push(("dur", us(ev.dur_ns)));
        } else {
            // Thread-scoped instant: renders as a marker on this track.
            fields.push(("s", Json::Str("t".into())));
        }
        fields.push(("args", Json::obj(args)));
        out.push(Json::obj(fields));
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(out)),
        ("displayTimeUnit", Json::Str("ms".into())),
        (
            "otherData",
            Json::obj(vec![("dropped_events", Json::Int(dropped as i64))]),
        ),
    ])
}

/// Renders runtime events as folded flamegraph stacks, weights in
/// microseconds. Wait time inside a loop is split into a `;wait` child
/// frame so the flame shows compute vs. synchronization; sub-microsecond
/// spans round up to 1 so no observed frame vanishes.
pub fn flamegraph_folded(events: &[TraceEvent]) -> String {
    // (worker, loop) -> (loop_run_ns, wait_ns); worker -> park_ns.
    let mut loops: BTreeMap<(u32, u64), (u64, u64)> = BTreeMap::new();
    let mut park: BTreeMap<u32, u64> = BTreeMap::new();
    let mut scavenge_ns = 0u64;
    for ev in events {
        match ev.kind {
            EventKind::LoopRun => loops.entry((ev.tid, ev.a)).or_default().0 += ev.dur_ns,
            EventKind::WaitSpan => loops.entry((ev.tid, ev.a)).or_default().1 += ev.dur_ns,
            EventKind::Park => *park.entry(ev.tid).or_default() += ev.dur_ns,
            EventKind::Scavenge => scavenge_ns += ev.dur_ns,
            _ => {}
        }
    }
    let weight = |ns: u64| ns.div_ceil(1000).max(1);
    let mut lines = Vec::new();
    for (&(w, l), &(run_ns, wait_ns)) in &loops {
        // Wait is nested inside the loop span; report the non-wait rest
        // as the loop's own weight.
        lines.push(format!(
            "worker {w};loop {l} {}",
            weight(run_ns.saturating_sub(wait_ns))
        ));
        if wait_ns > 0 {
            lines.push(format!("worker {w};loop {l};wait {}", weight(wait_ns)));
        }
    }
    for (&w, &ns) in &park {
        if ns > 0 {
            lines.push(format!("worker {w};park {}", weight(ns)));
        }
    }
    if scavenge_ns > 0 {
        lines.push(format!("heap;scavenge {}", weight(scavenge_ns)));
    }
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, tid: u32, ts: u64, dur: u64, a: u64, b: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            dur_ns: dur,
            a,
            b,
            tid,
            kind,
        }
    }

    #[test]
    fn chrome_trace_parses_and_tracks_pids() {
        let events = vec![
            ev(EventKind::Dispatch, 0, 100, 0, 3, 4),
            ev(EventKind::LoopRun, 0, 120, 5_000, 3, 40),
            ev(EventKind::LoopRun, 1, 150, 4_800, 3, 24),
            ev(EventKind::Refill, HEAP_TID, 400, 0, 2, 32),
        ];
        let pipeline = vec![PhaseOutcome {
            phase: "parse",
            key: dse_telemetry::ContentHasher::new("parse").finish(),
            outcome: dse_telemetry::CacheOutcome::Miss,
            wall: std::time::Duration::from_nanos(50),
            at: std::time::Duration::ZERO,
            stats: [].into(),
        }];
        let doc = chrome_trace(&events, &pipeline, 7);
        // Byte-stable output that the in-tree reader can parse back.
        let parsed = Json::parse(&doc.to_string()).unwrap();
        let evs = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // 3 process metadata records (pipeline, 2 workers) + heap meta +
        // 1 pipeline span + 4 runtime events.
        assert_eq!(evs.len(), 9);
        let pids: Vec<i64> = evs
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() != Some("M"))
            .map(|e| e.get("pid").unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(pids, [1, 10, 10, 11, 2]);
        // A worker's loop span says how many iterations it ran.
        let iters: Vec<i64> = evs
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("loop 3"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("iters")
                    .unwrap()
                    .as_i64()
                    .unwrap()
            })
            .collect();
        assert_eq!(iters, [40, 24]);
        assert_eq!(
            parsed
                .get("otherData")
                .unwrap()
                .get("dropped_events")
                .unwrap()
                .as_i64(),
            Some(7)
        );
    }

    #[test]
    fn flamegraph_splits_wait_from_compute() {
        let events = vec![
            ev(EventKind::LoopRun, 0, 0, 10_000, 5, 0),
            ev(EventKind::WaitSpan, 0, 1_000, 4_000, 5, 1),
            ev(EventKind::Park, 1, 0, 2_000, 0, 0),
        ];
        let folded = flamegraph_folded(&events);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            [
                "worker 0;loop 5 6",
                "worker 0;loop 5;wait 4",
                "worker 1;park 2"
            ]
        );
    }
}
