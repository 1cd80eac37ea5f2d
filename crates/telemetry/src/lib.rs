//! Telemetry for the expansion pipeline.
//!
//! Five pieces, all dependency-free (the JSON layer is hand-rolled so the
//! workspace builds offline):
//!
//! * [`metrics`] — [`metrics::PhaseOutcome`], the one record of a pipeline
//!   phase (which artifact, hit or miss, how long, its size stats), and
//!   [`metrics::RunMetrics`], a serializable snapshot of one `dsec`
//!   invocation: the request's phase trace, the VM's aggregate and
//!   per-thread Figure-12 counters, peak heap, per-loop profile stats, and
//!   the expansion tallies.
//! * [`trace`] — [`trace::TraceObserver`], a [`dse_runtime::Observer`]
//!   that streams every sited access, candidate-loop event and heap event
//!   as one JSON object per line (JSONL).
//! * [`hist`] — [`hist::LogHistogram`], HDR-style log-bucketed latency
//!   histograms (exact below 16, 16 sub-buckets per octave above) used by
//!   the daemon's per-request/per-phase/queue-wait latency tracking.
//! * [`chrome`] — exporters for the runtime trace ring
//!   ([`dse_runtime::TraceEvent`]): Chrome trace-event JSON (one pid per
//!   worker, Perfetto-loadable) and folded-stack flamegraph text.
//!
//! The serialization format is documented in `DESIGN.md` ("Observability")
//! and is stable enough to diff across runs: object keys are emitted in a
//! fixed order and all times are integer nanoseconds.

pub mod chrome;
pub mod hash;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod trace;

pub use chrome::{chrome_trace, flamegraph_folded};
pub use hash::{ContentHash, ContentHasher};
pub use hist::LogHistogram;
pub use json::Json;
pub use metrics::{
    prometheus_text, CacheOutcome, ExpansionStats, LatencyStats, LintStats, LoopStat,
    PhaseCacheStat, PhaseOutcome, PhaseStats, RunMetrics, ServerStats, VmStats,
};
pub use trace::TraceObserver;
