//! [`RunMetrics`]: a serializable snapshot of one pipeline invocation.
//!
//! Built by `dsec` from the request's phase trace, the dependence profile,
//! the expansion report and — when the program is executed — the VM's
//! [`RunReport`]. Emitted as a single JSON document via
//! [`RunMetrics::to_json`]; readers take the fields they want through
//! [`Json::get`].
//!
//! [`PhaseOutcome`] is the one record of "this phase took this long": the
//! artifact store appends one per phase to the request's trace, and
//! `--timing`, `--metrics`, the chrome export and the daemon's wire form
//! all render that trace.

use crate::hash::ContentHash;
use crate::hist::LogHistogram;
use crate::json::Json;
use dse_runtime::vm::{Counters, RunReport};
use dse_runtime::{HeapContention, PoolStats, TaskPoolStats};
use std::sync::Arc;
use std::time::Duration;

/// How one phase of one request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Computed here (and published for later requests).
    Miss,
    /// Served from a ready artifact.
    Hit,
    /// Waited for a concurrent identical computation, then shared it.
    Deduped,
}

impl CacheOutcome {
    /// Wire name used in the daemon protocol and telemetry stream.
    pub fn as_str(&self) -> &'static str {
        match self {
            CacheOutcome::Miss => "miss",
            CacheOutcome::Hit => "hit",
            CacheOutcome::Deduped => "dedup",
        }
    }

    /// True when the requester did not run the phase itself.
    pub fn served_from_cache(&self) -> bool {
        !matches!(self, CacheOutcome::Miss)
    }
}

/// A phase's integer size stats (instructions, sites, candidate loops, …),
/// shared between the stored artifact and every record that reports it.
pub type PhaseStats = Arc<[(&'static str, i64)]>;

/// One phase of one request: which artifact, how it was satisfied, how
/// long this requester waited for it (compute time on a miss, lock/park
/// time otherwise), and the artifact's size stats.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseOutcome {
    /// Phase name.
    pub phase: &'static str,
    /// The artifact's content key.
    pub key: ContentHash,
    /// Hit, miss or dedup.
    pub outcome: CacheOutcome,
    /// Wall time this requester spent obtaining the artifact.
    pub wall: Duration,
    /// Offset of this phase's start from the store's creation — places the
    /// phase on a trace timeline (chrome-trace export of pipeline spans
    /// next to runtime events).
    pub at: Duration,
    /// The artifact's size stats, stored beside it: a hit reports what the
    /// miss computed.
    pub stats: PhaseStats,
}

impl PhaseOutcome {
    /// The `--metrics` form:
    /// `{"phase", "key", "cache", "ns", "at_ns", "stats": {...}}`, times in
    /// integer nanoseconds.
    pub fn to_json(&self) -> Json {
        let ns = |d: Duration| Json::Int(d.as_nanos().min(i64::MAX as u128) as i64);
        Json::obj(vec![
            ("phase", Json::Str(self.phase.to_string())),
            ("key", Json::Str(self.key.to_string())),
            ("cache", Json::Str(self.outcome.as_str().to_string())),
            ("ns", ns(self.wall)),
            ("at_ns", ns(self.at)),
            (
                "stats",
                Json::Obj(
                    self.stats
                        .iter()
                        .map(|&(k, v)| (k.to_string(), Json::Int(v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Appends the `name  time  hit|miss|dedup  (stats)` line `dsec
    /// --timing` prints.
    pub fn render(&self, out: &mut String) {
        let ms = self.wall.as_secs_f64() * 1e3;
        let cache = self.outcome.as_str();
        out.push_str(&format!("{:<10} {ms:>9.3} ms  {cache:<5}", self.phase));
        if !self.stats.is_empty() {
            let stats: Vec<String> = self.stats.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!("  ({})", stats.join(", ")));
        }
        out.push('\n');
    }
}

/// Profile-time stats for one candidate loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopStat {
    /// Candidate loop id (stable across the pipeline).
    pub loop_id: u32,
    /// Human-readable label from the frontend.
    pub label: String,
    /// Iterations observed during the profiling run.
    pub iterations: u64,
    /// Sited memory accesses observed inside the loop.
    pub accesses: u64,
    /// VM instructions attributed to the loop.
    pub instructions: u64,
}

/// Expansion-transform tallies (mirrors `dse-core`'s report; kept as plain
/// counters here so telemetry does not depend on the compiler crate).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpansionStats {
    /// Expanded heap allocation sites.
    pub expanded_allocs: u64,
    /// Expanded globals.
    pub expanded_globals: u64,
    /// Expanded aggregate locals.
    pub expanded_locals: u64,
    /// Expanded scalar locals (classic scalar expansion).
    pub expanded_scalar_locals: u64,
    /// Promoted (fat) pointer types.
    pub fat_pointer_types: u64,
    /// Promoted span-carrying integers.
    pub fat_int_vars: u64,
    /// Private access sites redirected to `v[tid]` addressing.
    pub private_accesses_redirected: u64,
    /// Of those, accesses addressing through a hoisted `__rd_p` slot.
    pub redirections_hoisted: u64,
    /// Span stores emitted.
    pub span_stores_emitted: u64,
    /// Span stores elided by the `p = p ± c` rule.
    pub span_stores_elided: u64,
}

impl ExpansionStats {
    /// Distinct data structures privatized (allocs + globals + aggregate
    /// locals).
    pub fn privatized_structures(&self) -> u64 {
        self.expanded_allocs + self.expanded_globals + self.expanded_locals
    }
}

/// Verifier lint counts (the `dsec check` pass that runs before every
/// transform). Mirrors `dse-verify`'s per-severity report counts; kept as
/// plain counters so telemetry does not depend on the verifier crate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LintStats {
    /// Findings at `error` severity.
    pub errors: u64,
    /// Findings at `warning` severity.
    pub warnings: u64,
    /// Findings at `info` severity.
    pub infos: u64,
}

/// One pipeline phase's artifact-cache counters (daemon or in-process).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseCacheStat {
    /// Phase name (`parse`, `lower`, `profile`, `classify`, `plan`,
    /// `xform`, `reglower`, `verify`, `regverify`).
    pub phase: String,
    /// Requests served from a ready cached artifact.
    pub hits: u64,
    /// Requests that computed the artifact.
    pub misses: u64,
    /// Requests that waited on a concurrent identical computation instead
    /// of duplicating it.
    pub dedups: u64,
    /// Artifacts evicted by the LRU bound.
    pub evictions: u64,
}

/// Daemon latency distributions, all in nanoseconds: end-to-end per
/// request, queue wait (submit to worker pickup), and per-pipeline-phase
/// wall time. Empty histograms for documents written before the daemon
/// recorded latency.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// End-to-end request handling time.
    pub e2e: LogHistogram,
    /// Time a request spent queued behind the task pool.
    pub queue: LogHistogram,
    /// Wall time per pipeline phase, keyed by phase name (sorted).
    pub phases: Vec<(String, LogHistogram)>,
}

/// Compile-service counters: requests served and per-phase artifact-cache
/// behavior. Produced by `dsed` (and by standalone `dsec`, whose
/// in-process pipeline shares the same cache machinery).
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
    /// Latency histograms; empty for pre-histogram documents.
    pub latency: LatencyStats,
    /// Request-level task-pool counters; zero for pre-daemon documents.
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

/// VM execution stats: Figure-12 counters in aggregate and per thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Counters summed over all threads.
    pub totals: Counters,
    /// Counters by worker index (`per_thread[tid]`; index 0 = master).
    pub per_thread: Vec<Counters>,
    /// High-water mark of live heap bytes.
    pub peak_heap_bytes: u64,
    /// Allocator counters (class-list hits and refills, free-map
    /// operations, scavenges).
    pub heap_contention: HeapContention,
    /// Executor pool counters (spawned workers, dispatches, steals, parks,
    /// wakeups); all zero for serial runs.
    pub pool: PoolStats,
}

impl VmStats {
    /// Snapshot of a finished run.
    pub fn from_report(report: &RunReport) -> VmStats {
        VmStats {
            totals: report.counters,
            per_thread: report.per_thread.clone(),
            peak_heap_bytes: report.peak_heap_bytes,
            heap_contention: report.heap_contention,
            pool: report.pool,
        }
    }
}

/// The full telemetry snapshot for one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Source program path or name.
    pub program: String,
    /// Thread count the program was transformed/run for.
    pub threads: u32,
    /// Optimization level (`"none"` or `"full"`).
    pub opt: String,
    /// The request's phase trace, in execution order.
    pub phases: Vec<PhaseOutcome>,
    /// Per-candidate-loop profile stats.
    pub loops: Vec<LoopStat>,
    /// Expansion tallies; `None` when the transform was not run.
    pub expansion: Option<ExpansionStats>,
    /// Verifier lint counts; `None` when the check pass was not run.
    pub lints: Option<LintStats>,
    /// Execution stats; `None` without `--run`.
    pub vm: Option<VmStats>,
    /// Compile-service cache stats; `None` for pre-daemon documents.
    pub server: Option<ServerStats>,
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

/// Parses [`latency_to_json`] output.
///
/// # Errors
///
/// Returns a message when a field is missing or malformed.
pub fn latency_from_json(v: &Json) -> Result<LatencyStats, String> {
    let hist = |name: &str| -> Result<LogHistogram, String> {
        LogHistogram::from_json(
            v.get(name)
                .ok_or_else(|| format!("latency missing '{name}'"))?,
        )
        .ok_or_else(|| format!("latency '{name}' malformed"))
    };
    let phases = v
        .get("phases")
        .and_then(Json::as_arr)
        .ok_or("latency missing array 'phases'")?
        .iter()
        .map(|p| {
            let pair = p.as_arr().ok_or("latency phase entry not a pair")?;
            if pair.len() != 2 {
                return Err("latency phase entry not a pair".to_string());
            }
            let name = pair[0].as_str().ok_or("latency phase name not a string")?;
            let h = LogHistogram::from_json(&pair[1]).ok_or("latency phase histogram malformed")?;
            Ok((name.to_string(), h))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(LatencyStats {
        e2e: hist("e2e")?,
        queue: hist("queue")?,
        phases,
    })
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

/// Parses [`taskpool_to_json`] output.
///
/// # Errors
///
/// Returns the name of the first missing or mistyped field.
pub fn taskpool_from_json(v: &Json) -> Result<TaskPoolStats, String> {
    let field = |name: &str| -> Result<u64, String> {
        v.get(name)
            .and_then(Json::as_i64)
            .map(|n| n.max(0) as u64)
            .ok_or_else(|| format!("taskpool stats missing integer field '{name}'"))
    };
    Ok(TaskPoolStats {
        workers: field("workers")?,
        submitted: field("submitted")?,
        completed: field("completed")?,
        queued: field("queued")?,
        queued_peak: field("queued_peak")?,
    })
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

/// Parses [`server_to_json`] output.
///
/// # Errors
///
/// Returns the name of the first missing or mistyped field.
pub fn server_from_json(v: &Json) -> Result<ServerStats, String> {
    let field = |name: &str| -> Result<u64, String> {
        v.get(name)
            .and_then(Json::as_i64)
            .map(|n| n.max(0) as u64)
            .ok_or_else(|| format!("server stats missing integer field '{name}'"))
    };
    let phases = v
        .get("phases")
        .and_then(Json::as_arr)
        .ok_or("server stats missing array 'phases'")?
        .iter()
        .map(|p| {
            let int = |name: &str| -> Result<u64, String> {
                p.get(name)
                    .and_then(Json::as_i64)
                    .map(|n| n.max(0) as u64)
                    .ok_or_else(|| format!("phase cache stat missing integer '{name}'"))
            };
            Ok(PhaseCacheStat {
                phase: p
                    .get("phase")
                    .and_then(Json::as_str)
                    .ok_or("phase cache stat missing 'phase'")?
                    .to_string(),
                hits: int("hits")?,
                misses: int("misses")?,
                dedups: int("dedups")?,
                evictions: int("evictions")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    // Both blocks postdate the daemon; older documents parse with empty
    // histograms and zeroed pool counters.
    let latency = match v.get("latency") {
        None | Some(Json::Null) => LatencyStats::default(),
        Some(l) => latency_from_json(l)?,
    };
    let taskpool = match v.get("taskpool") {
        None | Some(Json::Null) => TaskPoolStats::default(),
        Some(t) => taskpool_from_json(t)?,
    };
    Ok(ServerStats {
        requests: field("requests")?,
        failures: field("failures")?,
        cache_entries: field("cache_entries")?,
        cache_capacity: field("cache_capacity")?,
        phases,
        latency,
        taskpool,
    })
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

/// Serializes Figure-12 counters as a flat object.
pub fn counters_to_json(c: &Counters) -> Json {
    Json::obj(vec![
        ("work", Json::Int(c.work as i64)),
        ("wait_spins", Json::Int(c.wait_spins as i64)),
        ("wait_yields", Json::Int(c.wait_yields as i64)),
        ("sync_ops", Json::Int(c.sync_ops as i64)),
        ("localize_calls", Json::Int(c.localize_calls as i64)),
        (
            "localize_copied_bytes",
            Json::Int(c.localize_copied_bytes as i64),
        ),
        ("private_direct", Json::Int(c.private_direct as i64)),
    ])
}

/// Serializes allocator contention counters as a flat object.
pub fn contention_to_json(c: &HeapContention) -> Json {
    Json::obj(vec![
        ("cache_hits", Json::Int(c.cache_hits as i64)),
        ("cache_misses", Json::Int(c.cache_misses as i64)),
        ("backend_locks", Json::Int(c.backend_locks as i64)),
        ("scavenges", Json::Int(c.scavenges as i64)),
    ])
}

/// Serializes executor pool counters as a flat object.
pub fn pool_to_json(p: &PoolStats) -> Json {
    Json::obj(vec![
        ("workers", Json::Int(p.workers as i64)),
        ("dispatches", Json::Int(p.dispatches as i64)),
        ("steals", Json::Int(p.steals as i64)),
        ("parks", Json::Int(p.parks as i64)),
        ("wakeups", Json::Int(p.wakeups as i64)),
    ])
}

impl RunMetrics {
    /// Serializes the snapshot as a single JSON document.
    pub fn to_json(&self) -> Json {
        let loops = self
            .loops
            .iter()
            .map(|l| {
                Json::obj(vec![
                    ("loop_id", Json::Int(l.loop_id as i64)),
                    ("label", Json::Str(l.label.clone())),
                    ("iterations", Json::Int(l.iterations as i64)),
                    ("accesses", Json::Int(l.accesses as i64)),
                    ("instructions", Json::Int(l.instructions as i64)),
                ])
            })
            .collect();
        let expansion = match &self.expansion {
            None => Json::Null,
            Some(e) => Json::obj(vec![
                ("expanded_allocs", Json::Int(e.expanded_allocs as i64)),
                ("expanded_globals", Json::Int(e.expanded_globals as i64)),
                ("expanded_locals", Json::Int(e.expanded_locals as i64)),
                (
                    "expanded_scalar_locals",
                    Json::Int(e.expanded_scalar_locals as i64),
                ),
                ("fat_pointer_types", Json::Int(e.fat_pointer_types as i64)),
                ("fat_int_vars", Json::Int(e.fat_int_vars as i64)),
                (
                    "private_accesses_redirected",
                    Json::Int(e.private_accesses_redirected as i64),
                ),
                (
                    "redirections_hoisted",
                    Json::Int(e.redirections_hoisted as i64),
                ),
                (
                    "span_stores_emitted",
                    Json::Int(e.span_stores_emitted as i64),
                ),
                ("span_stores_elided", Json::Int(e.span_stores_elided as i64)),
                (
                    "privatized_structures",
                    Json::Int(e.privatized_structures() as i64),
                ),
            ]),
        };
        let lints = match &self.lints {
            None => Json::Null,
            Some(l) => Json::obj(vec![
                ("errors", Json::Int(l.errors as i64)),
                ("warnings", Json::Int(l.warnings as i64)),
                ("infos", Json::Int(l.infos as i64)),
            ]),
        };
        let vm = match &self.vm {
            None => Json::Null,
            Some(s) => Json::obj(vec![
                ("totals", counters_to_json(&s.totals)),
                (
                    "per_thread",
                    Json::Arr(s.per_thread.iter().map(counters_to_json).collect()),
                ),
                ("peak_heap_bytes", Json::Int(s.peak_heap_bytes as i64)),
                ("heap_contention", contention_to_json(&s.heap_contention)),
                ("pool", pool_to_json(&s.pool)),
            ]),
        };
        Json::obj(vec![
            ("program", Json::Str(self.program.clone())),
            ("threads", Json::Int(self.threads as i64)),
            ("opt", Json::Str(self.opt.clone())),
            (
                "phases",
                Json::Arr(self.phases.iter().map(PhaseOutcome::to_json).collect()),
            ),
            ("loops", Json::Arr(loops)),
            ("expansion", expansion),
            ("lints", lints),
            ("vm", vm),
            (
                "server",
                match &self.server {
                    None => Json::Null,
                    Some(s) => server_to_json(s),
                },
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunMetrics {
        let counters = |base: u64| Counters {
            work: base,
            wait_spins: base + 1,
            wait_yields: base + 6,
            sync_ops: base + 2,
            localize_calls: base + 3,
            localize_copied_bytes: base + 4,
            private_direct: base + 5,
        };
        RunMetrics {
            program: "examples/scratch.cee".into(),
            threads: 4,
            opt: "full".into(),
            phases: vec![PhaseOutcome {
                phase: "parse",
                key: crate::ContentHasher::new("parse").str("source").finish(),
                outcome: CacheOutcome::Hit,
                wall: Duration::from_nanos(98_765),
                at: Duration::from_nanos(1_200),
                stats: [("source_bytes", 420), ("functions", 2)].into(),
            }],
            loops: vec![LoopStat {
                loop_id: 0,
                label: "main#0".into(),
                iterations: 100,
                accesses: 5_000,
                instructions: 60_000,
            }],
            expansion: Some(ExpansionStats {
                expanded_allocs: 1,
                expanded_globals: 2,
                expanded_locals: 3,
                expanded_scalar_locals: 4,
                fat_pointer_types: 5,
                fat_int_vars: 6,
                private_accesses_redirected: 7,
                redirections_hoisted: 3,
                span_stores_emitted: 8,
                span_stores_elided: 9,
            }),
            lints: Some(LintStats {
                errors: 0,
                warnings: 2,
                infos: 1,
            }),
            vm: Some(VmStats {
                totals: counters(1000),
                per_thread: vec![counters(400), counters(600)],
                peak_heap_bytes: 4096,
                heap_contention: HeapContention {
                    cache_hits: 120,
                    cache_misses: 8,
                    backend_locks: 9,
                    scavenges: 1,
                },
                pool: PoolStats {
                    workers: 3,
                    dispatches: 2,
                    steals: 5,
                    parks: 7,
                    wakeups: 6,
                },
            }),
            server: Some(ServerStats {
                requests: 12,
                failures: 1,
                cache_entries: 9,
                cache_capacity: 256,
                phases: vec![
                    PhaseCacheStat {
                        phase: "parse".into(),
                        hits: 10,
                        misses: 2,
                        dedups: 1,
                        evictions: 0,
                    },
                    PhaseCacheStat {
                        phase: "verify".into(),
                        hits: 11,
                        misses: 1,
                        dedups: 0,
                        evictions: 3,
                    },
                ],
                latency: {
                    let mut l = LatencyStats::default();
                    for v in [1_000, 2_000, 1_000_000] {
                        l.e2e.record(v);
                    }
                    l.queue.record(500);
                    let mut parse = LogHistogram::new();
                    parse.record(10_000);
                    l.phases = vec![("parse".into(), parse)];
                    l
                },
                taskpool: TaskPoolStats {
                    workers: 4,
                    submitted: 12,
                    completed: 12,
                    queued: 0,
                    queued_peak: 3,
                },
            }),
        }
    }

    /// Follows `path` through nested objects and array indices.
    fn at<'j>(doc: &'j Json, path: &[&str]) -> &'j Json {
        path.iter().fold(doc, |j, key| match key.parse::<usize>() {
            Ok(i) => &j.as_arr().expect("array")[i],
            Err(_) => j.get(key).unwrap_or_else(|| panic!("no `{key}` in {j}")),
        })
    }

    #[test]
    fn metrics_json_round_trips() {
        let m = sample();
        let text = m.to_json().to_string();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.to_string(),
            text,
            "the document re-serializes to itself"
        );
        let int = |path: &[&str]| at(&doc, path).as_i64();
        assert_eq!(
            at(&doc, &["program"]).as_str(),
            Some("examples/scratch.cee")
        );
        assert_eq!(int(&["threads"]), Some(4));
        // One phase record: name, hit/miss, times, the artifact's stats.
        let phase = &m.phases[0];
        assert_eq!(at(&doc, &["phases", "0", "phase"]).as_str(), Some("parse"));
        assert_eq!(at(&doc, &["phases", "0", "cache"]).as_str(), Some("hit"));
        assert_eq!(
            at(&doc, &["phases", "0", "key"]).as_str(),
            Some(phase.key.to_string().as_str())
        );
        assert_eq!(int(&["phases", "0", "ns"]), Some(98_765));
        assert_eq!(int(&["phases", "0", "at_ns"]), Some(1_200));
        assert_eq!(int(&["phases", "0", "stats", "source_bytes"]), Some(420));
        assert_eq!(int(&["loops", "0", "iterations"]), Some(100));
        assert_eq!(int(&["expansion", "privatized_structures"]), Some(6));
        assert_eq!(int(&["lints", "warnings"]), Some(2));
        assert_eq!(int(&["vm", "totals", "work"]), Some(1000));
        assert_eq!(int(&["vm", "per_thread", "1", "work"]), Some(600));
        assert_eq!(int(&["vm", "peak_heap_bytes"]), Some(4096));
        assert_eq!(int(&["vm", "pool", "steals"]), Some(5));
        assert_eq!(int(&["server", "requests"]), Some(12));
    }

    #[test]
    fn metrics_without_run_round_trips() {
        let mut m = sample();
        m.vm = None;
        m.expansion = None;
        m.lints = None;
        m.server = None;
        let text = m.to_json().to_string();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.to_string(), text);
        for absent in ["vm", "expansion", "lints", "server"] {
            assert_eq!(doc.get(absent), Some(&Json::Null), "{absent}");
        }
    }

    #[test]
    fn counters_round_trip() {
        let c = Counters {
            work: 9,
            wait_spins: 8,
            wait_yields: 3,
            sync_ops: 7,
            localize_calls: 6,
            localize_copied_bytes: 5,
            private_direct: 4,
        };
        let v = Json::parse(&counters_to_json(&c).to_string()).unwrap();
        let read = |k| v.get(k).and_then(Json::as_i64).map(|n| n as u64);
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
            [9, 8, 3, 7, 6, 5, 4].map(Some)
        );
    }

    #[test]
    fn contention_round_trip() {
        let c = HeapContention {
            cache_hits: 11,
            cache_misses: 2,
            backend_locks: 3,
            scavenges: 1,
        };
        let v = Json::parse(&contention_to_json(&c).to_string()).unwrap();
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
        let p = PoolStats {
            workers: 7,
            dispatches: 40,
            steals: 13,
            parks: 52,
            wakeups: 47,
        };
        let v = Json::parse(&pool_to_json(&p).to_string()).unwrap();
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
    fn server_stats_round_trip_and_default_when_absent() {
        let s = sample().server.unwrap();
        assert_eq!(server_from_json(&server_to_json(&s)).unwrap(), s);
        assert_eq!(s.total_hits(), 22);
        assert_eq!(s.total_misses(), 3);

        // A block whose latency and pool counters are `null` (a daemon
        // that never recorded them) parses with empty histograms and
        // zeroed counters.
        let Json::Obj(mut fields) = server_to_json(&s) else {
            panic!("server stats serialize as an object");
        };
        for (key, value) in &mut fields {
            if key == "latency" || key == "taskpool" {
                *value = Json::Null;
            }
        }
        let parsed = server_from_json(&Json::Obj(fields)).unwrap();
        let bare = ServerStats {
            latency: LatencyStats::default(),
            taskpool: TaskPoolStats::default(),
            ..s
        };
        assert_eq!(parsed, bare);
    }

    #[test]
    fn timing_line_shows_outcome_and_stats() {
        let mut out = String::new();
        sample().phases[0].render(&mut out);
        assert_eq!(
            out,
            "parse          0.099 ms  hit    (source_bytes=420, functions=2)\n"
        );
    }

    #[test]
    fn latency_and_taskpool_default_when_absent() {
        // A server block written before latency tracking existed parses
        // with empty histograms and zeroed pool counters.
        let mut s = sample().server.unwrap();
        let text = server_to_json(&s).to_string();
        let (head, _) = text.rsplit_once(",\"latency\":").unwrap();
        let parsed = server_from_json(&Json::parse(&format!("{head}}}")).unwrap()).unwrap();
        s.latency = LatencyStats::default();
        s.taskpool = TaskPoolStats::default();
        assert_eq!(parsed, s);
    }

    #[test]
    fn prometheus_text_renders_quantiles() {
        let s = sample().server.unwrap();
        let text = prometheus_text(&s);
        assert!(text.contains("dsed_requests_total 12"));
        assert!(text.contains("dsed_taskpool_queued_peak 3"));
        assert!(text.contains("dsed_phase_cache_total{phase=\"parse\",outcome=\"hit\"} 10"));
        assert!(text.contains("dsed_request_latency_seconds{quantile=\"0.5\"}"));
        assert!(text.contains("dsed_request_latency_seconds_count{} 3"));
        assert!(text.contains("dsed_phase_latency_seconds{phase=\"parse\",quantile=\"0.99\"}"));
    }

    #[test]
    fn privatized_structures_counts_data_structures_only() {
        let e = sample().expansion.unwrap();
        assert_eq!(e.privatized_structures(), 6);
    }
}
