//! The phase records: [`PhaseOutcome`], the one record of "this phase
//! took this long", and [`PhaseCacheStat`], a phase's cumulative cache
//! counters.
//!
//! The artifact store appends one [`PhaseOutcome`] per phase to the
//! request's trace, and `--timing`, `--metrics`, the chrome export and the
//! daemon's wire form all render that trace.

use crate::hash::ContentHash;
use crate::json::Json;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_line_shows_outcome_and_stats() {
        let phase = PhaseOutcome {
            phase: "parse",
            key: crate::ContentHasher::new("parse").str("source").finish(),
            outcome: CacheOutcome::Hit,
            wall: Duration::from_nanos(98_765),
            at: Duration::from_nanos(1_200),
            stats: [("source_bytes", 420), ("functions", 2)].into(),
        };
        let mut out = String::new();
        phase.render(&mut out);
        assert_eq!(
            out,
            "parse          0.099 ms  hit    (source_bytes=420, functions=2)\n"
        );
    }
}
