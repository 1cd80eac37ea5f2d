//! `dsed` — the compile-and-run daemon.
//!
//! ```text
//! dsed --socket <path> [--workers N] [--capacity N] [--telemetry <path|->]
//! dsed --batch         [--workers N] [--capacity N] [--telemetry <path|->]
//! ```
//!
//! `--socket` listens on a unix socket; clients (`dsec --daemon <path>`,
//! or anything speaking the newline-delimited JSON protocol in DESIGN.md)
//! connect and exchange one JSON object per line. The path appears once
//! the daemon is listening. A `shutdown` request stops the daemon after
//! in-flight requests drain.
//!
//! `--batch` reads requests from stdin and writes responses to stdout,
//! still executing concurrently on the request workers — responses come
//! back in completion order, correlated by `id`. At EOF the daemon drains
//! and prints the cumulative stats as one JSON line on stderr.
//!
//! `--telemetry` appends one JSONL line per request (id, command, wall
//! time, per-phase cache outcomes) to a file, or writes it to stderr with
//! `-`. The file is never truncated or rotated; rotating it is the host's
//! job.

use dse_server::{Server, ServerConfig};
use std::io::{BufWriter, Write};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: dsed --socket <path> [--workers N] [--capacity N] [--telemetry <path|->]\n\
         \x20      dsed --batch [--workers N] [--capacity N] [--telemetry <path|->]"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut socket: Option<String> = None;
    let mut batch = false;
    let mut config = ServerConfig::default();
    let mut telemetry: Option<String> = None;
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
            // Buffered so each record, flushed whole, is one append.
            match std::fs::File::options()
                .create(true)
                .append(true)
                .open(&dest)
            {
                Ok(f) => Box::new(BufWriter::new(f)),
                Err(e) => {
                    eprintln!("dsed: {dest}: {e}");
                    return ExitCode::from(2);
                }
            }
        };
        server = server.with_telemetry(sink);
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
