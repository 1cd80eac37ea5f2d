//! # dse-server — the request path, the `dsed` daemon and the `dsec` driver
//!
//! [`execute()`] is the one way a [`Request`] becomes artifacts or a run:
//! analyze → transform → verify → (for register code) lower and verify
//! again → execute, through a shared [`dse_core::ArtifactStore`]. The
//! `dsec` binary calls it in-process; the `dsed` binary serves it.
//!
//! `dsed` is a long-running service: clients submit newline-delimited
//! JSON requests (see [`protocol`]) over a unix socket, or over
//! stdin/stdout in `--batch` mode; each request compiles, checks and
//! optionally executes one Cee program. What makes the daemon more than
//! a loop around `dsec` is the shared state:
//!
//! * **One [`dse_core::ArtifactStore`] for every request.** Phases are
//!   keyed by content hashes that chain through artifact *content*
//!   (DESIGN.md, "The dsed daemon"), so a re-submitted program is a pure
//!   cache hit, an edited program only re-runs the phases downstream of
//!   the edit, and two concurrent submissions of the same program collapse
//!   onto one computation.
//! * **A fixed set of request workers.** Each front end feeds one queue
//!   that `--workers` scoped threads answer from, orthogonal to the
//!   per-`Vm` loop pool a `run` request spins up internally.
//! * **Shared telemetry.** Each response carries its per-phase cache
//!   outcomes; `--telemetry` appends one JSONL line per request to a file
//!   (or stderr), and the `stats` command (or the end-of-batch summary)
//!   reports the cumulative [`metrics::ServerStats`] — including
//!   end-to-end, queue-wait and per-phase latency histograms with their
//!   p50/p90/p99.
//!
//! The crate also renders what a request produced: [`metrics`] builds the
//! `dsec --metrics` document from an [`Outcome`] and the daemon's stats
//! documents, [`trace::TraceObserver`] streams a serial run as JSONL, and
//! [`chrome`] exports the runtime trace ring as Chrome trace-event JSON or
//! folded flamegraph stacks.

pub mod chrome;
pub mod execute;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod trace;

pub use execute::{execute, Failure, Outcome};
pub use protocol::{Cmd, PhaseLine, Request, Response};
pub use server::{Server, ServerConfig};
