//! The daemon itself: request execution over the shared artifact store,
//! plus the two front ends (`--batch` over stdin/stdout, `--socket` over a
//! unix listener).

use crate::execute::execute;
use crate::protocol::{Cmd, PhaseLine, Request, Response};
use dse_core::ArtifactStore;
use dse_runtime::{NullObserver, TaskPool, VmConfig};
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
        self.account(req, || self.answer(req))
    }

    /// Runs `answer` and folds its response into the counters, the
    /// latency histograms and the telemetry stream. A panicking request
    /// becomes a failed response — counted like any other failure —
    /// instead of a hung client or a dead worker.
    fn account(&self, req: &Request, answer: impl FnOnce() -> Response) -> Response {
        let started = Instant::now();
        self.requests.fetch_add(1, Ordering::SeqCst);
        let resp = std::panic::catch_unwind(std::panic::AssertUnwindSafe(answer))
            .unwrap_or_else(|_| Response::failure(&req.id, "internal error: request panicked"));
        if !resp.ok {
            self.failures.fetch_add(1, Ordering::SeqCst);
        }
        {
            let mut lat = self.latency.lock().unwrap();
            lat.e2e.record(started.elapsed().as_nanos() as u64);
            for p in &resp.phases {
                lat.phases.entry(p.phase.clone()).or_default().record(p.ns);
            }
        }
        self.emit_telemetry(req, &resp, started);
        resp
    }

    fn answer(&self, req: &Request) -> Response {
        let ok = Response {
            id: req.id.clone(),
            ok: true,
            ..Response::default()
        };
        match req.cmd {
            Cmd::Stats => Response {
                stats: Some(self.stats()),
                ..ok
            },
            Cmd::Metrics => Response {
                metrics: Some(self.prometheus_text()),
                ..ok
            },
            Cmd::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                ok
            }
            Cmd::Run | Cmd::Compile | Cmd::Check => {
                execute(&self.store, req, VmConfig::default(), &mut NullObserver).response(req)
            }
        }
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
                Json::Arr(resp.phases.iter().map(PhaseLine::to_json).collect()),
            ),
        ]);
        let mut sink = sink.lock().unwrap();
        let _ = writeln!(sink, "{line}");
        let _ = sink.flush();
    }

    /// Submits a parsed request to the task pool; the response is sent on
    /// `out`.
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
            let _ = out.send(server.handle(&req));
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
                    let _ = std::os::unix::net::UnixStream::connect(&addr);
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(source: &str) -> Request {
        Request {
            source: Some(source.into()),
            threads: 1,
            ..Request::new("t", Cmd::Run)
        }
    }

    #[test]
    fn zero_threads_is_a_failed_request_not_a_panic() {
        let server = Server::new(&ServerConfig::default());
        let req = Request {
            threads: 0,
            ..run("int main() { return 0; }")
        };
        let resp = server.handle(&req);
        assert!(!resp.ok);
        assert_eq!(resp.error.as_deref(), Some("bad `threads`"));
        assert_eq!(resp.exit, 1);
        assert_eq!(server.stats().failures, 1);
    }

    #[test]
    fn a_panicking_request_is_counted_and_the_next_one_served() {
        let server = Server::new(&ServerConfig::default());
        let req = run("int main() { out_long(7); return 0; }");
        let resp = server.account(&req, || panic!("seeded"));
        assert!(!resp.ok);
        assert_eq!(resp.id, "t");
        assert_eq!(
            resp.error.as_deref(),
            Some("internal error: request panicked")
        );
        let stats = server.stats();
        assert_eq!((stats.requests, stats.failures), (1, 1));
        assert_eq!(stats.latency.e2e.count(), 1, "latency recorded too");

        let resp = server.handle(&req);
        assert!(resp.ok, "{:?}", resp.error);
        assert_eq!(resp.out_long, [7]);
        assert_eq!(server.stats().failures, 1);
    }
}
