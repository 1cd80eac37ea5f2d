//! Telemetry formats for the expansion pipeline.
//!
//! Four pieces, none depending on another workspace crate (the JSON layer
//! is hand-rolled so the workspace builds offline):
//!
//! * [`json`] — [`Json`], the value type every document the workspace
//!   writes is built from, with a compact emitter and a depth-bounded
//!   parser.
//! * [`hash`] — [`ContentHash`] and [`ContentHasher`], the content keys of
//!   the artifact store.
//! * [`hist`] — [`hist::LogHistogram`], HDR-style log-bucketed latency
//!   histograms (exact below 16, 16 sub-buckets per octave above) used by
//!   the daemon's per-request/per-phase/queue-wait latency tracking.
//! * [`metrics`] — the phase records: [`metrics::PhaseOutcome`] (which
//!   artifact, hit or miss, how long, its size stats) and
//!   [`metrics::PhaseCacheStat`] (a phase's cumulative cache counters).
//!
//! The documents built from these — `dsec --metrics`, the daemon's
//! `stats`, the JSONL and chrome traces — are assembled in `dse-server`,
//! next to the runtime and compiler types they render. Their format is
//! documented in `DESIGN.md` ("Observability") and is stable enough to
//! diff across runs: object keys are emitted in a fixed order and all
//! times are integer nanoseconds.

pub mod hash;
pub mod hist;
pub mod json;
pub mod metrics;

pub use hash::{ContentHash, ContentHasher};
pub use hist::LogHistogram;
pub use json::Json;
pub use metrics::{CacheOutcome, PhaseCacheStat, PhaseOutcome, PhaseStats};
