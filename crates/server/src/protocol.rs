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
//! a daemon-side path (`path`); inline wins when both are present. A
//! field that is present with the wrong type is an error naming it, on
//! both sides of the wire; `null` reads as absent for the optional ones
//! (`source`, `path`, `error`, `metrics`).

use crate::metrics::{server_to_json, ServerStats};
use dse_core::{CacheOutcome, OptLevel, PhaseOutcome, Trace};
use dse_runtime::BackendKind;
use dse_telemetry::Json;

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
        let cmd = typed(j, "cmd", Json::as_str)?.ok_or("missing `cmd`")?;
        let cmd = Cmd::parse(cmd).ok_or_else(|| format!("unknown cmd `{cmd}`"))?;
        let mut r = Request::new(typed(j, "id", Json::as_str)?.unwrap_or(""), cmd);
        r.source = nullable(j, "source", Json::as_str)?.map(str::to_string);
        r.path = nullable(j, "path", Json::as_str)?.map(str::to_string);
        if let Some(t) = typed(j, "threads", Json::as_i64)? {
            r.threads = u32::try_from(t).map_err(|_| "bad `threads`".to_string())?;
        }
        if let Some(o) = typed(j, "opt", Json::as_str)? {
            r.opt = OptLevel::parse(o).ok_or_else(|| format!("unknown opt `{o}`"))?;
        }
        r.baseline = typed(j, "baseline", Json::as_bool)?.unwrap_or(false);
        r.serial = typed(j, "serial", Json::as_bool)?.unwrap_or(false);
        r.strict = typed(j, "strict", Json::as_bool)?.unwrap_or(false);
        if let Some(b) = typed(j, "exec_backend", Json::as_str)? {
            r.exec_backend =
                BackendKind::parse(b).ok_or_else(|| format!("unknown exec_backend `{b}`"))?;
        }
        r.inputs = typed(j, "in", |v| each(v, Json::as_i64))?.unwrap_or_default();
        Ok(r)
    }
}

/// `j[key]` read by `as_t`: `None` when absent, an error naming the field
/// when it is present with another type.
fn typed<'j, T>(
    j: &'j Json,
    key: &str,
    as_t: impl FnOnce(&'j Json) -> Option<T>,
) -> Result<Option<T>, String> {
    j.get(key)
        .map(|v| as_t(v).ok_or_else(|| format!("bad `{key}`")))
        .transpose()
}

/// [`typed`] for an optional field, which `null` also leaves absent.
fn nullable<'j, T>(
    j: &'j Json,
    key: &str,
    as_t: impl FnOnce(&'j Json) -> Option<T>,
) -> Result<Option<T>, String> {
    match j.get(key) {
        Some(Json::Null) => Ok(None),
        _ => typed(j, key, as_t),
    }
}

/// An array whose every element `as_t` reads.
fn each<'j, T>(v: &'j Json, as_t: impl FnMut(&'j Json) -> Option<T>) -> Option<Vec<T>> {
    v.as_arr()?.iter().map(as_t).collect()
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

    /// Parses a response object; absent fields take defaults. The
    /// `stats` payload is written for clients, never read back here.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first present field that has the
    /// wrong type.
    pub fn from_json(j: &Json) -> Result<Response, String> {
        let string = |key| Ok::<_, String>(typed(j, key, Json::as_str)?.unwrap_or("").to_string());
        Ok(Response {
            id: string("id")?,
            ok: typed(j, "ok", Json::as_bool)?.unwrap_or(false),
            error: nullable(j, "error", Json::as_str)?.map(str::to_string),
            console: string("console")?,
            out_long: typed(j, "out_long", |v| each(v, Json::as_i64))?.unwrap_or_default(),
            // The writer emits a non-finite float as `null`.
            out_float: typed(j, "out_float", |v| {
                each(v, |f| match f {
                    Json::Null => Some(f64::NAN),
                    f => f.as_f64(),
                })
            })?
            .unwrap_or_default(),
            exit: typed(j, "exit", Json::as_i64)?.unwrap_or(0),
            diagnostics: typed(j, "diagnostics", |v| {
                each(v, |d| d.as_str().map(str::to_string))
            })?
            .unwrap_or_default(),
            phases: typed(j, "phases", |v| each(v, PhaseLine::from_json))?.unwrap_or_default(),
            stats: None,
            metrics: nullable(j, "metrics", Json::as_str)?.map(str::to_string),
        })
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
            // A non-finite float travels as `null` and comes back as NaN.
            out_float: vec![0.5, f64::NAN],
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
        assert_eq!(back.out_float.len(), 2);
        assert!(back.out_float[0] == 0.5 && back.out_float[1].is_nan());
        assert_eq!(back.phases, r.phases);
        assert_eq!(back.cache_hits(), 0);
        assert_eq!(back.cache_misses(), 1);
    }

    #[test]
    fn mistyped_fields_are_errors_naming_the_field() {
        // Each row sets one field of a valid message to a wrong-typed value.
        let request = r#"{"id":"1","cmd":"run","source":"x","threads":1,"opt":"full",
            "baseline":false,"serial":false,"strict":false,"exec_backend":"stack","in":[1]}"#;
        let response = r#"{"id":"1","ok":true,"error":null,"console":"","out_long":[1],
            "out_float":[0.5],"exit":0,"diagnostics":["d"],
            "phases":[{"phase":"parse","key":"k","cache":"miss","ns":1}],"stats":null,"metrics":null}"#;
        let with = |doc: &str, key: &str, value: Json| {
            let Ok(Json::Obj(mut pairs)) = Json::parse(doc) else {
                panic!("a valid object");
            };
            pairs.iter_mut().find(|(k, _)| k == key).expect("a field").1 = value;
            Json::Obj(pairs)
        };
        let s = |v: &str| Json::Str(v.into());
        let arr = |v: Json| Json::Arr(vec![v]);
        assert!(Request::from_json(&Json::parse(request).unwrap()).is_ok());
        assert!(Response::from_json(&Json::parse(response).unwrap()).is_ok());
        for (key, bad) in [
            ("id", Json::Int(1)),
            ("cmd", Json::Int(1)),
            ("source", Json::Int(42)),
            ("threads", s("1")),
            ("opt", Json::Bool(true)),
            ("baseline", s("yes")),
            ("serial", s("yes")),
            ("strict", Json::Int(1)),
            ("exec_backend", Json::Int(0)),
            ("in", arr(s("1"))),
        ] {
            let err = Request::from_json(&with(request, key, bad)).unwrap_err();
            assert_eq!(err, format!("bad `{key}`"), "request `{key}`");
        }
        let path = Request::from_json(&with(request, "source", Json::Null)).unwrap();
        assert_eq!(path.source, None, "null reads as absent");
        for (key, bad) in [
            ("id", Json::Int(1)),
            ("ok", s("true")),
            ("error", Json::Int(1)),
            ("console", Json::Int(1)),
            ("out_long", arr(Json::Float(1.5))),
            ("out_float", arr(s("0.5"))),
            ("exit", s("1")),
            ("diagnostics", arr(Json::Int(1))),
            ("phases", arr(Json::Int(1))),
            ("metrics", Json::Int(1)),
        ] {
            let err = Response::from_json(&with(response, key, bad)).unwrap_err();
            assert_eq!(err, format!("bad `{key}`"), "response `{key}`");
        }
    }
}
