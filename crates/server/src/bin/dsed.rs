//! `dsed` — the compile-and-run daemon.
//!
//! ```text
//! dsed --socket <path> [--workers N] [--capacity N] [--telemetry <path|->]
//!      [--telemetry-max-bytes N] [--telemetry-keep N]
//!      [--metrics-addr <host:port>]
//! dsed --batch         [--workers N] [--capacity N] [--telemetry <path|->]
//!      [--telemetry-max-bytes N] [--telemetry-keep N]
//!      [--metrics-addr <host:port>]
//! ```
//!
//! `--socket` listens on a unix socket; clients (`dsec --daemon <path>`,
//! or anything speaking the newline-delimited JSON protocol in DESIGN.md)
//! connect and exchange one JSON object per line. A `shutdown` request
//! stops the daemon after in-flight requests drain.
//!
//! `--batch` reads requests from stdin and writes responses to stdout,
//! still executing concurrently on the worker pool — responses come back
//! in completion order, correlated by `id`. At EOF the daemon drains and
//! prints the cumulative stats as one JSON line on stderr.
//!
//! `--telemetry` streams one JSONL line per request (id, command, wall
//! time, per-phase cache outcomes) to a file, or to stderr with `-`. File
//! sinks rotate by size: once the active file would exceed
//! `--telemetry-max-bytes` (default 4 MiB) it becomes `<path>.1` and a
//! fresh file starts; only the newest `--telemetry-keep` rotated files
//! (default 4) are retained.
//!
//! `--metrics-addr` serves the Prometheus-style text exposition (request
//! counters, cache outcomes, latency summaries) over plain HTTP on the
//! given TCP address — `curl host:port/metrics`. The same text is
//! available over the daemon protocol as the `metrics` request.

use dse_server::{RotatingWriter, Server, ServerConfig};
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: dsed --socket <path> [--workers N] [--capacity N] [--telemetry <path|->] \
         [--telemetry-max-bytes N] [--telemetry-keep N] [--metrics-addr <host:port>]\n\
         \x20      dsed --batch [--workers N] [--capacity N] [--telemetry <path|->] \
         [--telemetry-max-bytes N] [--telemetry-keep N] [--metrics-addr <host:port>]"
    );
    std::process::exit(2)
}

/// Minimal HTTP/1.0 responder: every request (path ignored) gets the
/// current Prometheus text. One thread, sequential accepts — metrics
/// scrapes are rare and tiny.
fn serve_metrics(server: Arc<Server>, listener: std::net::TcpListener) {
    for conn in listener.incoming() {
        let Ok(mut conn) = conn else { continue };
        if server.shutting_down() {
            break;
        }
        // Drain the request line so the client sees a clean exchange; the
        // path is irrelevant (everything serves /metrics).
        let mut buf = [0u8; 1024];
        let _ = std::io::Read::read(&mut conn, &mut buf);
        let body = server.prometheus_text();
        let _ = write!(
            conn,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut socket: Option<String> = None;
    let mut batch = false;
    let mut config = ServerConfig::default();
    let mut telemetry: Option<String> = None;
    let mut telemetry_max_bytes: u64 = 4 << 20;
    let mut telemetry_keep: usize = 4;
    let mut metrics_addr: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--batch" => batch = true,
            "--workers" => {
                config.workers = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--capacity" => {
                config.capacity = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--telemetry" => telemetry = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--telemetry-max-bytes" => {
                telemetry_max_bytes = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--telemetry-keep" => {
                telemetry_keep = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--metrics-addr" => metrics_addr = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if batch == socket.is_some() {
        usage(); // exactly one front end
    }

    let mut server = Server::new(&config);
    if let Some(dest) = telemetry {
        let sink: Box<dyn Write + Send> = if dest == "-" {
            Box::new(std::io::stderr())
        } else {
            match RotatingWriter::open(&dest, telemetry_max_bytes, telemetry_keep) {
                Ok(w) => Box::new(w),
                Err(e) => {
                    eprintln!("dsed: {dest}: {e}");
                    return ExitCode::from(2);
                }
            }
        };
        server = server.with_telemetry(sink);
    }
    let server = Arc::new(server);

    if let Some(addr) = metrics_addr {
        match std::net::TcpListener::bind(&addr) {
            Ok(listener) => {
                // Print the resolved address: `--metrics-addr 127.0.0.1:0`
                // binds an ephemeral port.
                let local = listener.local_addr().map(|a| a.to_string()).unwrap_or(addr);
                eprintln!("dsed: metrics on http://{local}/metrics");
                let server = Arc::clone(&server);
                std::thread::spawn(move || serve_metrics(server, listener));
            }
            Err(e) => {
                eprintln!("dsed: {addr}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let served = if batch {
        server.serve_batch(std::io::stdin().lock(), std::io::stdout())
    } else {
        let path = socket.expect("checked above");
        eprintln!("dsed: listening on {path}");
        server.serve_socket(&path)
    };
    match served {
        Ok(stats) => {
            eprintln!("{}", dse_server::metrics::server_to_json(&stats));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dsed: {e}");
            ExitCode::from(2)
        }
    }
}
