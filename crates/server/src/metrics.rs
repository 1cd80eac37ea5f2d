//! The documents the request path reports, built straight from what it
//! counted.
//!
//! * [`run_metrics`] — the `dsec --metrics` document of one request, from
//!   its [`Outcome`]: the phase trace, the profile's loops, the
//!   [`ExpansionReport`], the verifier's counts, the VM's [`RunReport`]
//!   (Figure 12's `vm.totals` and `vm.per_thread`) and the store's
//!   counters.
//! * [`ServerStats`] — the daemon's cumulative counters and latency
//!   histograms, sent as the `stats` response ([`server_to_json`]), the
//!   end-of-batch stderr line and, as Prometheus text
//!   ([`prometheus_text`]), the `metrics` response and HTTP endpoint.
//!
//! The workspace writes these documents and never reads them back;
//! readers take the fields they want through [`Json::get`].

use crate::execute::Outcome;
use crate::protocol::Request;
use dse_core::{ExpansionReport, StoreStats};
use dse_runtime::vm::Counters;
use dse_runtime::{RunReport, TaskPoolStats};
use dse_telemetry::{Json, LogHistogram, PhaseCacheStat, PhaseOutcome};
use dse_verify::diag::{Report, Severity};
use std::collections::BTreeMap;

/// Daemon latency distributions, all in nanoseconds: end-to-end per
/// request, queue wait (submit to worker pickup), and per-pipeline-phase
/// wall time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// End-to-end request handling time.
    pub e2e: LogHistogram,
    /// Time a request spent queued behind the task pool.
    pub queue: LogHistogram,
    /// Wall time per pipeline phase, keyed by phase name.
    pub phases: BTreeMap<String, LogHistogram>,
}

/// Compile-service counters: requests served, the artifact store's
/// per-phase cache behavior, latency and the request pool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests served (all commands).
    pub requests: u64,
    /// Requests that failed (compile, verify or runtime errors).
    pub failures: u64,
    /// Ready artifacts currently resident in the store.
    pub cache_entries: u64,
    /// LRU capacity bound (ready-artifact count).
    pub cache_capacity: u64,
    /// Per-phase hit/miss/dedup/eviction counters.
    pub phases: Vec<PhaseCacheStat>,
    /// Latency histograms; empty outside the daemon.
    pub latency: LatencyStats,
    /// Request-level task-pool counters; zero outside the daemon.
    pub taskpool: TaskPoolStats,
}

impl ServerStats {
    /// Total cache hits across phases (dedup waits count as hits: the
    /// requester got the artifact without computing it).
    pub fn total_hits(&self) -> u64 {
        self.phases.iter().map(|p| p.hits + p.dedups).sum()
    }

    /// Total cache misses across phases.
    pub fn total_misses(&self) -> u64 {
        self.phases.iter().map(|p| p.misses).sum()
    }
}

/// Serializes daemon latency histograms.
pub fn latency_to_json(l: &LatencyStats) -> Json {
    Json::obj(vec![
        ("e2e", l.e2e.to_json()),
        ("queue", l.queue.to_json()),
        (
            "phases",
            Json::Arr(
                l.phases
                    .iter()
                    .map(|(name, h)| Json::Arr(vec![Json::Str(name.clone()), h.to_json()]))
                    .collect(),
            ),
        ),
    ])
}

/// Serializes request-level task-pool counters.
pub fn taskpool_to_json(t: &TaskPoolStats) -> Json {
    Json::obj(vec![
        ("workers", Json::Int(t.workers as i64)),
        ("submitted", Json::Int(t.submitted as i64)),
        ("completed", Json::Int(t.completed as i64)),
        ("queued", Json::Int(t.queued as i64)),
        ("queued_peak", Json::Int(t.queued_peak as i64)),
    ])
}

/// Serializes compile-service cache counters.
pub fn server_to_json(s: &ServerStats) -> Json {
    Json::obj(vec![
        ("requests", Json::Int(s.requests as i64)),
        ("failures", Json::Int(s.failures as i64)),
        ("cache_entries", Json::Int(s.cache_entries as i64)),
        ("cache_capacity", Json::Int(s.cache_capacity as i64)),
        (
            "phases",
            Json::Arr(
                s.phases
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("phase", Json::Str(p.phase.clone())),
                            ("hits", Json::Int(p.hits as i64)),
                            ("misses", Json::Int(p.misses as i64)),
                            ("dedups", Json::Int(p.dedups as i64)),
                            ("evictions", Json::Int(p.evictions as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("latency", latency_to_json(&s.latency)),
        ("taskpool", taskpool_to_json(&s.taskpool)),
    ])
}

/// Renders [`ServerStats`] as a Prometheus-style text exposition:
/// counters, gauges, and latency summaries (seconds) with p50/p90/p99
/// quantiles, served by `dsed --metrics-addr` and the `metrics` request.
pub fn prometheus_text(s: &ServerStats) -> String {
    use std::fmt::Write as _;
    fn scalar(out: &mut String, kind: &str, name: &str, help: &str, v: u64) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        let _ = writeln!(out, "{name} {v}");
    }
    fn summary(out: &mut String, name: &str, help: &str, labels: &str, h: &LogHistogram) {
        let secs = |ns: u64| ns as f64 / 1e9;
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} summary");
        let sep = if labels.is_empty() { "" } else { "," };
        for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            let _ = writeln!(
                out,
                "{name}{{{labels}{sep}quantile=\"{label}\"}} {}",
                secs(h.percentile(q))
            );
        }
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", secs(h.sum()));
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
    }
    let mut out = String::new();
    for (name, help, v) in [
        ("dsed_requests_total", "Requests served.", s.requests),
        ("dsed_failures_total", "Requests that failed.", s.failures),
        (
            "dsed_taskpool_submitted_total",
            "Tasks accepted by the request pool.",
            s.taskpool.submitted,
        ),
        (
            "dsed_taskpool_completed_total",
            "Tasks the request pool finished.",
            s.taskpool.completed,
        ),
    ] {
        scalar(&mut out, "counter", name, help, v);
    }
    for (name, help, v) in [
        (
            "dsed_cache_entries",
            "Ready artifacts resident in the store.",
            s.cache_entries,
        ),
        (
            "dsed_cache_capacity",
            "Artifact-store LRU capacity.",
            s.cache_capacity,
        ),
        (
            "dsed_taskpool_workers",
            "Request-pool worker threads.",
            s.taskpool.workers,
        ),
        (
            "dsed_taskpool_queued",
            "Tasks waiting in the request queue.",
            s.taskpool.queued,
        ),
        (
            "dsed_taskpool_queued_peak",
            "High-water mark of the request queue depth.",
            s.taskpool.queued_peak,
        ),
    ] {
        scalar(&mut out, "gauge", name, help, v);
    }
    let _ = writeln!(
        out,
        "# HELP dsed_phase_cache_total Artifact-cache outcomes per phase."
    );
    let _ = writeln!(out, "# TYPE dsed_phase_cache_total counter");
    for p in &s.phases {
        for (outcome, v) in [
            ("hit", p.hits),
            ("miss", p.misses),
            ("dedup", p.dedups),
            ("eviction", p.evictions),
        ] {
            let _ = writeln!(
                out,
                "dsed_phase_cache_total{{phase=\"{}\",outcome=\"{outcome}\"}} {v}",
                p.phase
            );
        }
    }
    summary(
        &mut out,
        "dsed_request_latency_seconds",
        "End-to-end request handling time.",
        "",
        &s.latency.e2e,
    );
    summary(
        &mut out,
        "dsed_queue_wait_seconds",
        "Time requests spent queued behind the task pool.",
        "",
        &s.latency.queue,
    );
    for (phase, h) in &s.latency.phases {
        summary(
            &mut out,
            "dsed_phase_latency_seconds",
            "Wall time per pipeline phase.",
            &format!("phase=\"{phase}\""),
            h,
        );
    }
    out
}

/// The `dsec --metrics` document of one request answered in-process:
/// `program`, `threads`, `opt`, the phase trace, per-loop profile stats,
/// the expansion tallies, the verifier's lint counts, the VM's counters
/// and a `server` block of the store's counters for this one request.
/// A block whose stage did not run (`expansion` and `lints` on a serial
/// run, `vm` without `--run`) is `null`.
pub fn run_metrics(program: &str, req: &Request, outcome: &Outcome, store: StoreStats) -> Json {
    let loops = outcome
        .analysis
        .iter()
        .flat_map(|art| &art.analysis.profile.loops)
        .map(|l| {
            Json::obj(vec![
                ("loop_id", Json::Int(l.loop_id as i64)),
                ("label", Json::Str(l.label.clone())),
                ("iterations", Json::Int(l.iterations as i64)),
                ("accesses", Json::Int(l.total_accesses as i64)),
                ("instructions", Json::Int(l.instructions as i64)),
            ])
        })
        .collect();
    let expansion = |e: &ExpansionReport| {
        ints([
            ("expanded_allocs", e.expanded_allocs),
            ("expanded_globals", e.expanded_globals),
            ("expanded_locals", e.expanded_locals),
            ("expanded_scalar_locals", e.expanded_scalar_locals),
            ("fat_pointer_types", e.fat_pointer_types),
            ("fat_int_vars", e.fat_int_vars),
            ("private_accesses_redirected", e.private_accesses_redirected),
            ("redirections_hoisted", e.redirections_hoisted),
            ("span_stores_emitted", e.span_stores_emitted),
            ("span_stores_elided", e.span_stores_elided),
            ("privatized_structures", e.privatized_structures()),
        ])
    };
    let lints = |r: &Report| {
        ints([
            ("errors", r.count(Severity::Error)),
            ("warnings", r.count(Severity::Warning)),
            ("infos", r.count(Severity::Info)),
        ])
    };
    let counters = |c: &Counters| {
        ints([
            ("work", c.work),
            ("wait_spins", c.wait_spins),
            ("wait_yields", c.wait_yields),
            ("sync_ops", c.sync_ops),
            ("localize_calls", c.localize_calls),
            ("localize_copied_bytes", c.localize_copied_bytes),
            ("private_direct", c.private_direct),
        ])
    };
    let vm = |r: &RunReport| {
        let (h, p) = (&r.heap_contention, &r.pool);
        Json::obj(vec![
            ("totals", counters(&r.counters)),
            (
                "per_thread",
                Json::Arr(r.per_thread.iter().map(counters).collect()),
            ),
            ("peak_heap_bytes", Json::Int(r.peak_heap_bytes as i64)),
            (
                "heap_contention",
                ints([
                    ("cache_hits", h.cache_hits),
                    ("cache_misses", h.cache_misses),
                    ("backend_locks", h.backend_locks),
                    ("scavenges", h.scavenges),
                ]),
            ),
            (
                "pool",
                ints([
                    ("workers", p.workers),
                    ("dispatches", p.dispatches),
                    ("steals", p.steals),
                    ("parks", p.parks),
                    ("wakeups", p.wakeups),
                ]),
            ),
        ])
    };
    let or_null = |v: Option<Json>| v.unwrap_or(Json::Null);
    let server = ServerStats {
        requests: 1,
        failures: outcome.failure.is_some() as u64,
        cache_entries: store.entries,
        cache_capacity: store.capacity,
        phases: store.phases,
        ..ServerStats::default()
    };
    let transformed = outcome.transformed.as_ref();
    Json::obj(vec![
        ("program", Json::Str(program.to_string())),
        (
            "threads",
            Json::Int(if req.serial { 1 } else { req.threads as i64 }),
        ),
        ("opt", Json::Str(req.opt.name().to_string())),
        (
            "phases",
            Json::Arr(outcome.trace.iter().map(PhaseOutcome::to_json).collect()),
        ),
        ("loops", Json::Arr(loops)),
        (
            "expansion",
            or_null(transformed.map(|t| expansion(&t.transformed.report))),
        ),
        ("lints", or_null(outcome.report.as_deref().map(lints))),
        ("vm", or_null(outcome.run.as_ref().map(|(_, r)| vm(r)))),
        ("server", server_to_json(&server)),
    ])
}

/// An object of integer members, in order (a count past `i64::MAX`
/// saturates).
fn ints<T: TryInto<i64>, const N: usize>(pairs: [(&str, T); N]) -> Json {
    Json::obj(
        pairs
            .into_iter()
            .map(|(k, v)| (k, Json::Int(v.try_into().unwrap_or(i64::MAX))))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute::execute;
    use crate::protocol::Cmd;
    use dse_core::ArtifactStore;
    use dse_runtime::{HeapContention, NullObserver, PoolStats, VmConfig};

    /// A scratch-buffer loop: one heap structure and three scalars are
    /// privatized.
    const PROG: &str = "int main() {
      int *out; out = malloc(40 * sizeof(int));
      int *scratch; scratch = malloc(8 * sizeof(int));
      #pragma candidate hot
      for (int i = 0; i < 40; i++) {
        for (int k = 0; k < 8; k++) { scratch[k] = i * k + 1; }
        int s; s = 0;
        for (int k = 0; k < 8; k++) { s += scratch[k]; }
        out[i] = s;
      }
      out_long(out[39]);
      free(out); free(scratch);
      return 0;
    }";

    fn request(cmd: Cmd, threads: u32) -> Request {
        Request {
            source: Some(PROG.into()),
            threads,
            ..Request::new("m", cmd)
        }
    }

    /// Answers `req` on a fresh store.
    fn answer(req: &Request) -> (Outcome, StoreStats) {
        let store = ArtifactStore::new();
        let outcome = execute(&store, req, VmConfig::default(), &mut NullObserver);
        assert_eq!(outcome.failure, None);
        (outcome, store.stats())
    }

    /// The document, parsed back from its text.
    fn document(req: &Request, outcome: &Outcome, store: StoreStats) -> Json {
        let text = run_metrics("prog.cee", req, outcome, store).to_string();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.to_string(),
            text,
            "the document re-serializes to itself"
        );
        doc
    }

    /// Follows `path` through nested objects and array indices.
    fn at<'j>(doc: &'j Json, path: &[&str]) -> &'j Json {
        path.iter().fold(doc, |j, key| match key.parse::<usize>() {
            Ok(i) => &j.as_arr().expect("array")[i],
            Err(_) => j.get(key).unwrap_or_else(|| panic!("no `{key}` in {j}")),
        })
    }

    fn int(doc: &Json, path: &[&str]) -> i64 {
        at(doc, path).as_i64().expect("an integer")
    }

    fn run_report(outcome: &mut Outcome) -> &mut RunReport {
        &mut outcome.run.as_mut().expect("a run").1
    }

    #[test]
    fn metrics_json_round_trips() {
        let req = request(Cmd::Run, 2);
        let (outcome, store) = answer(&req);
        let entries = store.entries as i64;
        let doc = document(&req, &outcome, store);
        assert_eq!(at(&doc, &["program"]).as_str(), Some("prog.cee"));
        assert_eq!(int(&doc, &["threads"]), 2);
        assert_eq!(at(&doc, &["opt"]).as_str(), Some("full"));
        // One record per phase: name, hit/miss, times, the artifact's stats.
        let parse = &outcome.trace[0];
        assert_eq!(at(&doc, &["phases", "0", "phase"]).as_str(), Some("parse"));
        assert_eq!(at(&doc, &["phases", "0", "cache"]).as_str(), Some("miss"));
        assert_eq!(
            at(&doc, &["phases", "0", "key"]).as_str(),
            Some(parse.key.to_string().as_str())
        );
        assert_eq!(
            int(&doc, &["phases", "0", "ns"]),
            parse.wall.as_nanos() as i64
        );
        assert_eq!(
            int(&doc, &["phases", "0", "at_ns"]),
            parse.at.as_nanos() as i64
        );
        assert_eq!(
            int(&doc, &["phases", "0", "stats", "source_bytes"]),
            PROG.len() as i64
        );
        assert_eq!(at(&doc, &["loops", "0", "label"]).as_str(), Some("hot"));
        assert_eq!(int(&doc, &["loops", "0", "iterations"]), 40);
        assert_eq!(int(&doc, &["expansion", "privatized_structures"]), 1);
        assert_eq!(int(&doc, &["lints", "warnings"]), 0);
        let (_, report) = outcome.run.as_ref().unwrap();
        assert_eq!(
            int(&doc, &["vm", "totals", "work"]),
            report.counters.work as i64
        );
        assert_eq!(
            int(&doc, &["vm", "per_thread", "1", "work"]),
            report.per_thread[1].work as i64
        );
        assert_eq!(
            int(&doc, &["vm", "peak_heap_bytes"]),
            report.peak_heap_bytes as i64
        );
        // The server block is this one request over the store's counters.
        assert_eq!(int(&doc, &["server", "requests"]), 1);
        assert_eq!(int(&doc, &["server", "failures"]), 0);
        assert_eq!(int(&doc, &["server", "cache_entries"]), entries);
        assert_eq!(int(&doc, &["server", "phases", "0", "misses"]), 1);
        assert_eq!(int(&doc, &["server", "latency", "e2e", "count"]), 0);
        assert_eq!(int(&doc, &["server", "taskpool", "submitted"]), 0);
    }

    #[test]
    fn metrics_without_run_round_trips() {
        // A compile transforms and verifies but runs nothing.
        let req = request(Cmd::Compile, 2);
        let (outcome, store) = answer(&req);
        let doc = document(&req, &outcome, store);
        assert_eq!(doc.get("vm"), Some(&Json::Null));
        assert!(at(&doc, &["expansion"]).get("expanded_allocs").is_some());
        // A serial run transforms nothing.
        let req = Request {
            serial: true,
            ..request(Cmd::Run, 2)
        };
        let (outcome, store) = answer(&req);
        let doc = document(&req, &outcome, store);
        assert_eq!(int(&doc, &["threads"]), 1);
        for absent in ["expansion", "lints"] {
            assert_eq!(doc.get(absent), Some(&Json::Null), "{absent}");
        }
        assert_eq!(int(&doc, &["vm", "pool", "workers"]), 0);
    }

    #[test]
    fn counters_round_trip() {
        let req = request(Cmd::Run, 2);
        let (mut outcome, store) = answer(&req);
        let counters = |base: u64| Counters {
            work: base,
            wait_spins: base + 1,
            wait_yields: base + 6,
            sync_ops: base + 2,
            localize_calls: base + 3,
            localize_copied_bytes: base + 4,
            private_direct: base + 5,
        };
        let report = run_report(&mut outcome);
        report.counters = counters(1000);
        report.per_thread = vec![counters(400), counters(600)];
        let doc = document(&req, &outcome, store);
        for (path, base) in [
            (&["vm", "totals"][..], 1000),
            (&["vm", "per_thread", "0"][..], 400),
            (&["vm", "per_thread", "1"][..], 600),
        ] {
            let c = at(&doc, path);
            let read = |k| c.get(k).and_then(Json::as_i64);
            assert_eq!(
                [
                    read("work"),
                    read("wait_spins"),
                    read("wait_yields"),
                    read("sync_ops"),
                    read("localize_calls"),
                    read("localize_copied_bytes"),
                    read("private_direct"),
                ],
                [0, 1, 6, 2, 3, 4, 5].map(|d| Some(base + d)),
                "{path:?}"
            );
        }
    }

    #[test]
    fn contention_round_trip() {
        let req = request(Cmd::Run, 2);
        let (mut outcome, store) = answer(&req);
        run_report(&mut outcome).heap_contention = HeapContention {
            cache_hits: 11,
            cache_misses: 2,
            backend_locks: 3,
            scavenges: 1,
        };
        let doc = document(&req, &outcome, store);
        let v = at(&doc, &["vm", "heap_contention"]);
        let read = |k| v.get(k).and_then(Json::as_i64);
        assert_eq!(
            [
                read("cache_hits"),
                read("cache_misses"),
                read("backend_locks"),
                read("scavenges")
            ],
            [11, 2, 3, 1].map(Some)
        );
    }

    #[test]
    fn pool_stats_round_trip() {
        let req = request(Cmd::Run, 2);
        let (mut outcome, store) = answer(&req);
        run_report(&mut outcome).pool = PoolStats {
            workers: 7,
            dispatches: 40,
            steals: 13,
            parks: 52,
            wakeups: 47,
        };
        let doc = document(&req, &outcome, store);
        let v = at(&doc, &["vm", "pool"]);
        let read = |k| v.get(k).and_then(Json::as_i64);
        assert_eq!(
            [
                read("workers"),
                read("dispatches"),
                read("steals"),
                read("parks"),
                read("wakeups")
            ],
            [7, 40, 13, 52, 47].map(Some)
        );
    }

    #[test]
    fn privatized_structures_counts_data_structures_only() {
        let req = request(Cmd::Compile, 2);
        let (outcome, store) = answer(&req);
        let doc = document(&req, &outcome, store);
        let e = |k| int(&doc, &["expansion", k]);
        // `scratch` is a data structure; `s` and the two `k`s are scalars.
        assert_eq!(e("expanded_allocs"), 1);
        assert_eq!(e("expanded_scalar_locals"), 3);
        assert_eq!(
            e("privatized_structures"),
            e("expanded_allocs") + e("expanded_globals") + e("expanded_locals")
        );
        assert_eq!(e("privatized_structures"), 1);
    }

    #[test]
    fn prometheus_text_renders_quantiles() {
        let phase = |name: &str, hits, misses, dedups, evictions| PhaseCacheStat {
            phase: name.into(),
            hits,
            misses,
            dedups,
            evictions,
        };
        let mut latency = LatencyStats::default();
        for v in [1_000, 2_000, 1_000_000] {
            latency.e2e.record(v);
        }
        latency.queue.record(500);
        let mut parse = LogHistogram::new();
        parse.record(10_000);
        latency.phases = BTreeMap::from([("parse".into(), parse)]);
        let s = ServerStats {
            requests: 12,
            failures: 1,
            cache_entries: 9,
            cache_capacity: 256,
            phases: vec![phase("parse", 10, 2, 1, 0), phase("verify", 11, 1, 0, 3)],
            latency,
            taskpool: TaskPoolStats {
                workers: 4,
                submitted: 12,
                completed: 12,
                queued: 0,
                queued_peak: 3,
            },
        };
        assert_eq!(s.total_hits(), 22);
        assert_eq!(s.total_misses(), 3);
        let text = prometheus_text(&s);
        assert!(text.contains("dsed_requests_total 12"));
        assert!(text.contains("dsed_taskpool_queued_peak 3"));
        assert!(text.contains("dsed_phase_cache_total{phase=\"parse\",outcome=\"hit\"} 10"));
        assert!(text.contains("dsed_request_latency_seconds{quantile=\"0.5\"}"));
        assert!(text.contains("dsed_request_latency_seconds_count{} 3"));
        assert!(text.contains("dsed_phase_latency_seconds{phase=\"parse\",quantile=\"0.99\"}"));
    }
}
