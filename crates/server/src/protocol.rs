//! The `dsed` wire protocol: newline-delimited JSON, one object per
//! request and one per response. Documented in DESIGN.md ("The dsed
//! daemon"); field order is fixed so responses diff cleanly.
//!
//! ```text
//! → {"id":"1","cmd":"run","source":"...","threads":4,"opt":"full",
//!    "baseline":false,"serial":false,"strict":false,"in":[3]}
//! ← {"id":"1","ok":true,"error":null,"console":"...","out_long":[7],
//!    "out_float":[],"exit":0,"diagnostics":[],
//!    "phases":[{"phase":"parse","key":"<32 hex>","cache":"miss","ns":812345}, ...],
//!    "stats":null}
//! ```
//!
//! Absent request fields take defaults (`threads` 4, `opt` full, flags
//! false, empty inputs), so the minimal request is `{"cmd":"run",
//! "source":"..."}`. A program is supplied either inline (`source`) or as
//! a daemon-side path (`path`); inline wins when both are present.

use dse_core::{CacheOutcome, OptLevel, PhaseOutcome, Trace};
use dse_runtime::BackendKind;
use dse_telemetry::metrics::{server_from_json, server_to_json};
use dse_telemetry::{Json, ServerStats};

/// What a request asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    /// Analyze, transform, verify and execute; the response carries the
    /// program's console output and outputs.
    Run,
    /// Analyze, transform and verify only (warms the cache).
    Compile,
    /// Run the soundness verifier and return its findings.
    Check,
    /// Report cumulative [`ServerStats`].
    Stats,
    /// Report the Prometheus-style text exposition (counters, gauges and
    /// latency summaries) in the response's `metrics` field.
    Metrics,
    /// Stop accepting requests and shut the daemon down.
    Shutdown,
}

impl Cmd {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Cmd::Run => "run",
            Cmd::Compile => "compile",
            Cmd::Check => "check",
            Cmd::Stats => "stats",
            Cmd::Metrics => "metrics",
            Cmd::Shutdown => "shutdown",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Cmd> {
        match s {
            "run" => Some(Cmd::Run),
            "compile" => Some(Cmd::Compile),
            "check" => Some(Cmd::Check),
            "stats" => Some(Cmd::Stats),
            "metrics" => Some(Cmd::Metrics),
            "shutdown" => Some(Cmd::Shutdown),
            _ => None,
        }
    }
}

/// One client request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: String,
    /// The command.
    pub cmd: Cmd,
    /// Inline program text (takes precedence over `path`).
    pub source: Option<String>,
    /// Daemon-side path to the program.
    pub path: Option<String>,
    /// Worker threads for the transformed program.
    pub threads: u32,
    /// Optimization level.
    pub opt: OptLevel,
    /// Use the runtime-privatization baseline plan.
    pub baseline: bool,
    /// Execute the serial program instead of the transformed one.
    pub serial: bool,
    /// `check`: treat warnings as failures.
    pub strict: bool,
    /// Integer inputs (profiling and execution).
    pub inputs: Vec<i64>,
    /// Execution backend for `run` (`"stack"` or `"reg"` on the wire;
    /// absent means stack).
    pub exec_backend: BackendKind,
}

impl Request {
    /// A request with every optional field at its default.
    pub fn new(id: impl Into<String>, cmd: Cmd) -> Request {
        Request {
            id: id.into(),
            cmd,
            source: None,
            path: None,
            threads: 4,
            opt: OptLevel::Full,
            baseline: false,
            serial: false,
            strict: false,
            inputs: Vec::new(),
            exec_backend: BackendKind::Stack,
        }
    }

    /// Serializes in wire field order.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("id", Json::Str(self.id.clone())),
            ("cmd", Json::Str(self.cmd.as_str().into())),
        ];
        if let Some(s) = &self.source {
            pairs.push(("source", Json::Str(s.clone())));
        }
        if let Some(p) = &self.path {
            pairs.push(("path", Json::Str(p.clone())));
        }
        pairs.push(("threads", Json::Int(self.threads as i64)));
        pairs.push(("opt", Json::Str(self.opt.name().into())));
        pairs.push(("baseline", Json::Bool(self.baseline)));
        pairs.push(("serial", Json::Bool(self.serial)));
        pairs.push(("strict", Json::Bool(self.strict)));
        pairs.push(("exec_backend", Json::Str(self.exec_backend.name().into())));
        pairs.push((
            "in",
            Json::Arr(self.inputs.iter().map(|&n| Json::Int(n)).collect()),
        ));
        Json::obj(pairs)
    }

    /// Parses a request object; absent fields take defaults.
    ///
    /// # Errors
    ///
    /// Returns a message suitable for an error response when `cmd` is
    /// missing or unknown, or a field has the wrong type.
    pub fn from_json(j: &Json) -> Result<Request, String> {
        let cmd = j.get("cmd").and_then(Json::as_str).ok_or("missing `cmd`")?;
        let cmd = Cmd::parse(cmd).ok_or_else(|| format!("unknown cmd `{cmd}`"))?;
        let mut r = Request::new(j.get("id").and_then(Json::as_str).unwrap_or(""), cmd);
        r.source = j.get("source").and_then(Json::as_str).map(str::to_string);
        r.path = j.get("path").and_then(Json::as_str).map(str::to_string);
        if let Some(t) = j.get("threads").and_then(Json::as_i64) {
            r.threads = u32::try_from(t).map_err(|_| "bad `threads`".to_string())?;
        }
        if let Some(o) = j.get("opt").and_then(Json::as_str) {
            r.opt = OptLevel::parse(o).ok_or_else(|| format!("unknown opt `{o}`"))?;
        }
        r.baseline = j.get("baseline").and_then(Json::as_bool).unwrap_or(false);
        r.serial = j.get("serial").and_then(Json::as_bool).unwrap_or(false);
        r.strict = j.get("strict").and_then(Json::as_bool).unwrap_or(false);
        if let Some(b) = j.get("exec_backend").and_then(Json::as_str) {
            r.exec_backend =
                BackendKind::parse(b).ok_or_else(|| format!("unknown exec_backend `{b}`"))?;
        }
        if let Some(v) = j.get("in") {
            r.inputs = v
                .as_arr()
                .and_then(|a| a.iter().map(Json::as_i64).collect())
                .ok_or("bad `in`")?;
        }
        Ok(r)
    }
}

/// One phase outcome on the wire: which artifact, hit/miss/dedup, and the
/// requester's wall time obtaining it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseLine {
    /// Phase name.
    pub phase: String,
    /// The artifact's content key, 32 hex digits.
    pub key: String,
    /// `"hit"`, `"miss"` or `"dedup"`.
    pub cache: String,
    /// Wall nanoseconds spent obtaining the artifact.
    pub ns: u64,
}

impl PhaseLine {
    /// Converts a pipeline [`PhaseOutcome`].
    pub fn from_outcome(p: &PhaseOutcome) -> PhaseLine {
        PhaseLine {
            phase: p.phase.to_string(),
            key: p.key.to_string(),
            cache: p.outcome.as_str().to_string(),
            ns: p.wall.as_nanos() as u64,
        }
    }

    /// Converts a whole request trace.
    pub fn from_trace(trace: &Trace) -> Vec<PhaseLine> {
        trace.iter().map(PhaseLine::from_outcome).collect()
    }

    /// True unless this phase was computed by this request.
    pub fn served_from_cache(&self) -> bool {
        self.cache != CacheOutcome::Miss.as_str()
    }

    /// The wire (and telemetry-stream) form.
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("phase", Json::Str(self.phase.clone())),
            ("key", Json::Str(self.key.clone())),
            ("cache", Json::Str(self.cache.clone())),
            ("ns", Json::Int(self.ns as i64)),
        ])
    }

    fn from_json(j: &Json) -> Option<PhaseLine> {
        Some(PhaseLine {
            phase: j.get("phase")?.as_str()?.to_string(),
            key: j.get("key")?.as_str()?.to_string(),
            cache: j.get("cache")?.as_str()?.to_string(),
            ns: j.get("ns")?.as_i64()? as u64,
        })
    }
}

/// One daemon response.
#[derive(Debug, Clone, Default)]
pub struct Response {
    /// The request's correlation id.
    pub id: String,
    /// False when the request failed (details in `error`).
    pub ok: bool,
    /// Failure message.
    pub error: Option<String>,
    /// `run`: the program's console output.
    pub console: String,
    /// `run`: integer outputs.
    pub out_long: Vec<i64>,
    /// `run`: float outputs.
    pub out_float: Vec<f64>,
    /// The exit code `dsec` would have returned.
    pub exit: i64,
    /// Rendered verifier findings.
    pub diagnostics: Vec<String>,
    /// Per-phase cache outcomes, in execution order.
    pub phases: Vec<PhaseLine>,
    /// Cumulative stats (`stats` command only).
    pub stats: Option<ServerStats>,
    /// Prometheus-style text exposition (`metrics` command only).
    pub metrics: Option<String>,
}

impl Response {
    /// An error response for `id` with exit code 1.
    pub fn failure(id: impl Into<String>, error: impl Into<String>) -> Response {
        Response {
            id: id.into(),
            ok: false,
            error: Some(error.into()),
            exit: 1,
            ..Response::default()
        }
    }

    /// Count of phases this request got from cache (dedups included).
    pub fn cache_hits(&self) -> usize {
        self.phases.iter().filter(|p| p.served_from_cache()).count()
    }

    /// Count of phases this request computed.
    pub fn cache_misses(&self) -> usize {
        self.phases.len() - self.cache_hits()
    }

    /// Serializes in wire field order.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::Str(self.id.clone())),
            ("ok", Json::Bool(self.ok)),
            (
                "error",
                match &self.error {
                    Some(e) => Json::Str(e.clone()),
                    None => Json::Null,
                },
            ),
            ("console", Json::Str(self.console.clone())),
            (
                "out_long",
                Json::Arr(self.out_long.iter().map(|&n| Json::Int(n)).collect()),
            ),
            (
                "out_float",
                Json::Arr(self.out_float.iter().map(|&f| Json::Float(f)).collect()),
            ),
            ("exit", Json::Int(self.exit)),
            (
                "diagnostics",
                Json::Arr(
                    self.diagnostics
                        .iter()
                        .map(|d| Json::Str(d.clone()))
                        .collect(),
                ),
            ),
            (
                "phases",
                Json::Arr(self.phases.iter().map(PhaseLine::to_json).collect()),
            ),
            (
                "stats",
                match &self.stats {
                    Some(s) => server_to_json(s),
                    None => Json::Null,
                },
            ),
            (
                "metrics",
                match &self.metrics {
                    Some(m) => Json::Str(m.clone()),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Parses a response object; absent fields take defaults.
    ///
    /// # Errors
    ///
    /// Returns a message when a present field has the wrong type.
    pub fn from_json(j: &Json) -> Result<Response, String> {
        let mut r = Response {
            id: j.get("id").and_then(Json::as_str).unwrap_or("").to_string(),
            ok: j.get("ok").and_then(Json::as_bool).unwrap_or(false),
            ..Response::default()
        };
        r.error = j
            .get("error")
            .filter(|e| !matches!(e, Json::Null))
            .and_then(Json::as_str)
            .map(str::to_string);
        if let Some(c) = j.get("console").and_then(Json::as_str) {
            r.console = c.to_string();
        }
        if let Some(a) = j.get("out_long").and_then(Json::as_arr) {
            r.out_long = a.iter().filter_map(Json::as_i64).collect();
        }
        if let Some(a) = j.get("out_float").and_then(Json::as_arr) {
            r.out_float = a.iter().filter_map(Json::as_f64).collect();
        }
        r.exit = j.get("exit").and_then(Json::as_i64).unwrap_or(0);
        if let Some(a) = j.get("diagnostics").and_then(Json::as_arr) {
            r.diagnostics = a
                .iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect();
        }
        if let Some(a) = j.get("phases").and_then(Json::as_arr) {
            r.phases = a
                .iter()
                .map(|p| PhaseLine::from_json(p).ok_or("bad phase line"))
                .collect::<Result<_, _>>()?;
        }
        if let Some(s) = j.get("stats").filter(|s| !matches!(s, Json::Null)) {
            r.stats = Some(server_from_json(s).map_err(|e| e.to_string())?);
        }
        r.metrics = j
            .get("metrics")
            .filter(|m| !matches!(m, Json::Null))
            .and_then(Json::as_str)
            .map(str::to_string);
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let mut r = Request::new("42", Cmd::Run);
        r.source = Some("long main() { return 0; }".into());
        r.threads = 8;
        r.opt = OptLevel::None;
        r.baseline = true;
        r.inputs = vec![3, 1, 4];
        let back = Request::from_json(&r.to_json()).unwrap();
        assert_eq!(back.id, "42");
        assert_eq!(back.cmd, Cmd::Run);
        assert_eq!(back.source.as_deref(), Some("long main() { return 0; }"));
        assert_eq!(back.threads, 8);
        assert_eq!(back.opt, OptLevel::None);
        assert!(back.baseline);
        assert_eq!(back.inputs, vec![3, 1, 4]);
    }

    #[test]
    fn minimal_request_defaults() {
        let j = Json::parse(r#"{"cmd":"compile","source":"x"}"#).unwrap();
        let r = Request::from_json(&j).unwrap();
        assert_eq!(r.cmd, Cmd::Compile);
        assert_eq!(r.threads, 4);
        assert_eq!(r.opt, OptLevel::Full);
        assert!(!r.baseline && !r.serial && !r.strict);
        assert!(r.inputs.is_empty());
    }

    #[test]
    fn bad_requests_are_rejected() {
        let missing = Json::parse(r#"{"source":"x"}"#).unwrap();
        assert!(Request::from_json(&missing).is_err());
        let unknown = Json::parse(r#"{"cmd":"reboot"}"#).unwrap();
        assert!(Request::from_json(&unknown).is_err());
        // A non-integer input must not be dropped and the rest run.
        for bad in [r#"[1,"x",3]"#, "[1.5]", "7"] {
            let j = Json::parse(&format!(r#"{{"cmd":"run","source":"x","in":{bad}}}"#)).unwrap();
            assert_eq!(Request::from_json(&j).unwrap_err(), "bad `in`", "{bad}");
        }
    }

    #[test]
    fn response_round_trips() {
        let r = Response {
            id: "7".into(),
            ok: true,
            error: None,
            console: "hello\n".into(),
            out_long: vec![1, 2],
            out_float: vec![0.5],
            exit: 0,
            diagnostics: vec!["warning: DSE001 ...".into()],
            phases: vec![PhaseLine {
                phase: "parse".into(),
                key: "00".repeat(16),
                cache: "miss".into(),
                ns: 123,
            }],
            stats: None,
            metrics: None,
        };
        let back = Response::from_json(&r.to_json()).unwrap();
        assert_eq!(back.id, "7");
        assert!(back.ok);
        assert_eq!(back.console, "hello\n");
        assert_eq!(back.out_long, vec![1, 2]);
        assert_eq!(back.phases, r.phases);
        assert_eq!(back.cache_hits(), 0);
        assert_eq!(back.cache_misses(), 1);
    }
}
