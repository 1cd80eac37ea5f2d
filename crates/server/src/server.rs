//! The daemon itself: request execution over the shared artifact store,
//! plus the two front ends (`--batch` over stdin/stdout, `--socket` over a
//! unix listener).

use crate::protocol::{Cmd, PhaseLine, Request, Response};
use dse_core::{ArtifactStore, Pipeline, Trace};
use dse_runtime::{TaskPool, Vm, VmConfig};
use dse_telemetry::{Json, LatencyStats, LogHistogram, ServerStats};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Daemon knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Request-level worker threads.
    pub workers: usize,
    /// Artifact-store LRU capacity.
    pub capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            capacity: ArtifactStore::DEFAULT_CAPACITY,
        }
    }
}

/// Latency histograms the daemon accumulates, one lock around all three
/// (recording is a few O(1) bucket increments per request, far off the
/// request's own critical path).
#[derive(Default)]
struct Latency {
    e2e: LogHistogram,
    queue: LogHistogram,
    phases: BTreeMap<String, LogHistogram>,
}

/// The shared daemon state: one artifact store, one task pool, cumulative
/// counters, latency histograms, the shutdown flag, and the optional
/// telemetry sink.
pub struct Server {
    store: ArtifactStore,
    pool: TaskPool,
    requests: AtomicU64,
    failures: AtomicU64,
    latency: Mutex<Latency>,
    shutdown: AtomicBool,
    telemetry: Option<Mutex<Box<dyn Write + Send>>>,
}

impl Server {
    /// A daemon with the given knobs and no telemetry sink.
    pub fn new(config: &ServerConfig) -> Server {
        Server {
            store: ArtifactStore::with_capacity(config.capacity),
            pool: TaskPool::new(config.workers),
            requests: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            latency: Mutex::new(Latency::default()),
            shutdown: AtomicBool::new(false),
            telemetry: None,
        }
    }

    /// Streams one JSONL line per request to `sink`.
    pub fn with_telemetry(mut self, sink: Box<dyn Write + Send>) -> Server {
        self.telemetry = Some(Mutex::new(sink));
        self
    }

    /// The shared artifact store (exposed for tests and benches).
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// True once a `shutdown` request has been accepted.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Cumulative stats: store counters, request totals, latency
    /// histograms and task-pool counters.
    pub fn stats(&self) -> ServerStats {
        let mut s = self.store.stats();
        s.requests = self.requests.load(Ordering::SeqCst);
        s.failures = self.failures.load(Ordering::SeqCst);
        let lat = self.latency.lock().unwrap();
        s.latency = LatencyStats {
            e2e: lat.e2e.clone(),
            queue: lat.queue.clone(),
            phases: lat
                .phases
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        };
        drop(lat);
        s.taskpool = self.pool.stats();
        s
    }

    /// The Prometheus-style text exposition of [`Server::stats`].
    pub fn prometheus_text(&self) -> String {
        dse_telemetry::prometheus_text(&self.stats())
    }

    /// Executes one request to completion and returns its response. Safe
    /// to call from any number of threads.
    pub fn handle(&self, req: &Request) -> Response {
        let started = Instant::now();
        self.requests.fetch_add(1, Ordering::SeqCst);
        let resp = match req.cmd {
            Cmd::Stats => Response {
                id: req.id.clone(),
                ok: true,
                stats: Some(self.stats()),
                ..Response::default()
            },
            Cmd::Metrics => Response {
                id: req.id.clone(),
                ok: true,
                metrics: Some(self.prometheus_text()),
                ..Response::default()
            },
            Cmd::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Response {
                    id: req.id.clone(),
                    ok: true,
                    ..Response::default()
                }
            }
            Cmd::Run | Cmd::Compile | Cmd::Check => self.pipeline_request(req),
        };
        if !resp.ok {
            self.failures.fetch_add(1, Ordering::SeqCst);
        }
        self.record_latency(&resp, started);
        self.emit_telemetry(req, &resp, started);
        resp
    }

    /// Folds one finished request into the latency histograms.
    fn record_latency(&self, resp: &Response, started: Instant) {
        let mut lat = self.latency.lock().unwrap();
        lat.e2e.record(started.elapsed().as_nanos() as u64);
        for p in &resp.phases {
            lat.phases.entry(p.phase.clone()).or_default().record(p.ns);
        }
    }

    /// The compile/check/run path: source → cached pipeline → verifier →
    /// (optionally) the VM.
    fn pipeline_request(&self, req: &Request) -> Response {
        let source = match (&req.source, &req.path) {
            (Some(s), _) => s.clone(),
            (None, Some(p)) => match std::fs::read_to_string(p) {
                Ok(s) => s,
                Err(e) => return Response::failure(&req.id, format!("{p}: {e}")),
            },
            (None, None) => return Response::failure(&req.id, "request needs `source` or `path`"),
        };
        let cfg = VmConfig {
            inputs_int: req.inputs.clone(),
            ..Default::default()
        };
        let pipeline = Pipeline::new(&self.store);
        let mut trace = Trace::new();

        let art = match pipeline.analyze(&source, &cfg, &mut trace) {
            Ok(a) => a,
            Err(e) => {
                return Response {
                    phases: PhaseLine::from_trace(&trace),
                    ..Response::failure(&req.id, e.to_string())
                }
            }
        };

        // `run --serial` executes the untransformed program; everything
        // else transforms (and `check` reports pass 1 even when the
        // transform fails).
        let needs_transform = !(req.cmd == Cmd::Run && req.serial);
        let transformed = if needs_transform {
            match pipeline.transform(&art, req.opt, req.threads, req.baseline, &mut trace) {
                Ok(t) => Some(t),
                Err(e) => {
                    if req.cmd == Cmd::Check {
                        let report = dse_verify::check_all(&art.analysis, None);
                        let mut resp = Response::failure(&req.id, format!("transform failed: {e}"));
                        resp.diagnostics = report.diagnostics.iter().map(|d| d.render()).collect();
                        resp.phases = PhaseLine::from_trace(&trace);
                        return resp;
                    }
                    return Response {
                        phases: PhaseLine::from_trace(&trace),
                        ..Response::failure(&req.id, e.to_string())
                    };
                }
            }
        } else {
            None
        };

        let mut resp = Response {
            id: req.id.clone(),
            ok: true,
            ..Response::default()
        };

        if let Some(t) = &transformed {
            let report = dse_verify::check_cached(&self.store, &art.analysis, t, &mut trace);
            if req.cmd == Cmd::Check {
                resp.diagnostics = report.render_text().lines().map(str::to_string).collect();
                if report.should_fail(req.strict) {
                    resp.ok = false;
                    resp.error = Some("verifier findings".into());
                    resp.exit = 1;
                }
                resp.phases = PhaseLine::from_trace(&trace);
                return resp;
            }
            resp.diagnostics = report.diagnostics.iter().map(|d| d.render()).collect();
            if report.should_fail(false) {
                resp.ok = false;
                resp.error = Some(format!(
                    "verification failed with {} error(s)",
                    report.count(dse_verify::diag::Severity::Error)
                ));
                resp.exit = 1;
                resp.phases = PhaseLine::from_trace(&trace);
                return resp;
            }
        }

        if req.cmd == Cmd::Run {
            let (compiled, nthreads) = match &transformed {
                Some(t) => (t.transformed.parallel.clone(), req.threads),
                None => (art.analysis.serial.clone(), 1),
            };
            let run_cfg = VmConfig {
                nthreads,
                inputs_int: req.inputs.clone(),
                backend: req.exec_backend,
                strict: req.strict,
                ..Default::default()
            };
            // The register lowering and its verification are cached
            // phases: a daemon serving the same program repeatedly pays
            // for them once, and a lowering bug surfaces as a failed
            // response — never a daemon panic.
            let run = match req.exec_backend {
                dse_runtime::BackendKind::Stack => {
                    Vm::new(compiled, run_cfg).map_err(|e| e.to_string())
                }
                dse_runtime::BackendKind::Reg => {
                    dse_verify::verified_reg_vm(&pipeline, compiled, run_cfg, &mut trace)
                }
            }
            .and_then(|mut vm| {
                let report = vm.run().map_err(|e| e.to_string())?;
                Ok((vm, report))
            });
            match run {
                Ok((vm, report)) => {
                    resp.console = vm.console().to_string();
                    resp.out_long = vm.outputs_int();
                    resp.out_float = vm.outputs_float();
                    if let Some(dse_runtime::Value::I(code)) = report.return_value {
                        resp.exit = code & 0xff;
                    }
                }
                Err(e) => {
                    resp.ok = false;
                    resp.error = Some(e);
                    resp.exit = 1;
                }
            }
        }

        resp.phases = PhaseLine::from_trace(&trace);
        resp
    }

    /// One JSONL line per request: id, command, outcome, wall time, and
    /// the per-phase cache outcomes.
    fn emit_telemetry(&self, req: &Request, resp: &Response, started: Instant) {
        let Some(sink) = &self.telemetry else { return };
        let line = Json::obj(vec![
            ("id", Json::Str(resp.id.clone())),
            ("cmd", Json::Str(req.cmd.as_str().into())),
            ("ok", Json::Bool(resp.ok)),
            ("wall_ns", Json::Int(started.elapsed().as_nanos() as i64)),
            ("cache_hits", Json::Int(resp.cache_hits() as i64)),
            ("cache_misses", Json::Int(resp.cache_misses() as i64)),
            (
                "phases",
                Json::Arr(
                    resp.phases
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("phase", Json::Str(p.phase.clone())),
                                ("cache", Json::Str(p.cache.clone())),
                                ("ns", Json::Int(p.ns as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let mut sink = sink.lock().unwrap();
        let _ = writeln!(sink, "{line}");
        let _ = sink.flush();
    }

    /// Submits a parsed request to the task pool; the response is sent on
    /// `out`. A panicking request produces an error response instead of a
    /// hung client.
    fn submit(self: &Arc<Self>, req: Request, out: mpsc::Sender<Response>) {
        let server = Arc::clone(self);
        let queued_at = Instant::now();
        self.pool.submit(move || {
            server
                .latency
                .lock()
                .unwrap()
                .queue
                .record(queued_at.elapsed().as_nanos() as u64);
            let id = req.id.clone();
            let resp =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.handle(&req)))
                    .unwrap_or_else(|_| Response::failure(id, "internal error: request panicked"));
            let _ = out.send(resp);
        });
    }

    /// `--batch`: newline-delimited requests on `input`, responses on
    /// `output` as they complete (order is by completion, not submission —
    /// clients correlate by id). Returns the cumulative stats.
    pub fn serve_batch(
        self: &Arc<Self>,
        input: impl BufRead,
        output: impl Write + Send + 'static,
    ) -> std::io::Result<ServerStats> {
        let (tx, rx) = mpsc::channel::<Response>();
        let writer = std::thread::spawn(move || -> std::io::Result<()> {
            let mut output = output;
            for resp in rx {
                writeln!(output, "{}", resp.to_json())?;
                output.flush()?;
            }
            Ok(())
        });
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match Json::parse(line.trim())
                .map_err(|e| e.to_string())
                .and_then(|j| Request::from_json(&j))
            {
                Ok(req) => self.submit(req, tx.clone()),
                Err(e) => {
                    let _ = tx.send(Response::failure("", format!("bad request: {e}")));
                }
            }
            if self.shutting_down() {
                break;
            }
        }
        self.pool.wait_idle();
        drop(tx);
        writer.join().expect("batch writer thread")?;
        Ok(self.stats())
    }

    /// `--socket`: accepts connections on a unix listener; each connection
    /// carries any number of newline-delimited requests, answered in order
    /// on the same connection. Returns the cumulative stats after a
    /// `shutdown` request.
    pub fn serve_socket(self: &Arc<Self>, path: &str) -> std::io::Result<ServerStats> {
        use std::os::unix::net::UnixListener;
        // A stale socket file from a previous daemon would fail the bind.
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let mut handlers = Vec::new();
        for conn in listener.incoming() {
            if self.shutting_down() {
                break;
            }
            let Ok(conn) = conn else { continue };
            let server = Arc::clone(self);
            handlers.push(std::thread::spawn(move || server.serve_connection(conn)));
            if self.shutting_down() {
                break;
            }
        }
        for h in handlers {
            let _ = h.join();
        }
        self.pool.wait_idle();
        let _ = std::fs::remove_file(path);
        Ok(self.stats())
    }

    fn serve_connection(self: Arc<Self>, conn: std::os::unix::net::UnixStream) {
        let Ok(reader) = conn.try_clone() else { return };
        let mut writer = conn;
        let reader = std::io::BufReader::new(reader);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            let resp = match Json::parse(line.trim())
                .map_err(|e| e.to_string())
                .and_then(|j| Request::from_json(&j))
            {
                Ok(req) => {
                    let (tx, rx) = mpsc::channel();
                    self.submit(req, tx);
                    rx.recv()
                        .unwrap_or_else(|_| Response::failure("", "internal error: no response"))
                }
                Err(e) => Response::failure("", format!("bad request: {e}")),
            };
            let done = self.shutting_down();
            if writeln!(writer, "{}", resp.to_json()).is_err() {
                break;
            }
            let _ = writer.flush();
            if done {
                // Unblock the accept loop so the daemon can exit.
                if let Some(addr) = writer
                    .local_addr()
                    .ok()
                    .and_then(|a| a.as_pathname().map(std::path::Path::to_path_buf))
                {
                    let _ = UnixStreamConnect::connect(&addr);
                }
                break;
            }
        }
    }
}

/// Tiny indirection so `serve_connection` can poke the accept loop without
/// importing `UnixStream` at every call site.
struct UnixStreamConnect;

impl UnixStreamConnect {
    fn connect(path: &std::path::Path) -> std::io::Result<()> {
        std::os::unix::net::UnixStream::connect(path).map(|_| ())
    }
}
