//! End-to-end daemon smoke: the real `dsed` binary, batch and socket
//! front ends, concurrent clients, shared cache.

use dse_server::Response;
use dse_telemetry::Json;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const PROG_SUM: &str = r#"
int main() {
  long *acc; acc = malloc(1 * sizeof(long));
  int *scratch; scratch = malloc(8 * sizeof(int));
  int *out; out = malloc(50 * sizeof(int));
  acc[0] = 0;
  #pragma candidate ordered
  for (int i = 0; i < 50; i++) {
    for (int k = 0; k < 8; k++) { scratch[k] = i * k + 3; }
    int s; s = 0;
    for (int k = 0; k < 8; k++) { s += scratch[k]; }
    acc[0] = acc[0] + s;
    out[i] = s;
  }
  out_long(acc[0]);
  free(acc); free(scratch); free(out);
  return 0;
}
"#;

const PROG_FILL: &str = r#"
int main() {
  int *buf; buf = malloc(16 * sizeof(int));
  long total; total = 0;
  #pragma candidate fill
  for (int i = 0; i < 32; i++) {
    for (int k = 0; k < 16; k++) { buf[k] = i + k; }
    int s; s = 0;
    for (int k = 0; k < 16; k++) { s += buf[k]; }
    out_long(s);
  }
  free(buf);
  return 0;
}
"#;

fn req(id: &str, cmd: &str, source: &str, threads: i64) -> String {
    Json::obj(vec![
        ("id", Json::Str(id.into())),
        ("cmd", Json::Str(cmd.into())),
        ("source", Json::Str(source.into())),
        ("threads", Json::Int(threads)),
    ])
    .to_string()
}

/// Follows `path` through nested objects.
fn field<'j>(doc: &'j Json, path: &[&str]) -> &'j Json {
    path.iter().fold(doc, |j, key| {
        j.get(key).unwrap_or_else(|| panic!("no `{key}` in {j}"))
    })
}

fn int(doc: &Json, path: &[&str]) -> i64 {
    field(doc, path).as_i64().expect("an integer")
}

fn arr<'j>(doc: &'j Json, path: &[&str]) -> &'j [Json] {
    field(doc, path).as_arr().expect("an array")
}

/// The `stats` payload of a raw response line.
fn stats_payload(line: &str) -> Json {
    let j = Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad JSON `{line}`: {e}"));
    field(&j, &["stats"]).clone()
}

fn parse_response(line: &str) -> Response {
    let j = Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad JSON `{line}`: {e}"));
    Response::from_json(&j).expect("well-formed response")
}

/// Eight concurrent mixed requests over two programs and their edits,
/// through the batch front end: every response ok, and the shared cache
/// served a nonzero number of phase artifacts.
#[test]
fn batch_eight_concurrent_mixed_requests() {
    let telemetry = std::env::temp_dir().join(format!("dsed-batch-{}.jsonl", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_dsed"))
        .args(["--batch", "--workers", "8"])
        .arg("--telemetry")
        .arg(&telemetry)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dsed");

    let sum_comment = format!("// edited\n{PROG_SUM}");
    let fill_bigger = PROG_FILL.replace("i < 32", "i < 33");
    let requests = [
        req("sum-run-1", "run", PROG_SUM, 4),
        req("sum-run-2", "run", PROG_SUM, 4),
        req("sum-comment", "run", &sum_comment, 4),
        req("sum-check", "check", PROG_SUM, 4),
        req("fill-run-1", "run", PROG_FILL, 2),
        req("fill-run-2", "run", PROG_FILL, 2),
        req("fill-edit", "run", &fill_bigger, 2),
        req("fill-compile", "compile", PROG_FILL, 2),
    ];
    {
        let mut stdin = child.stdin.take().expect("stdin");
        for r in &requests {
            writeln!(stdin, "{r}").unwrap();
        }
        // Dropping stdin is the EOF that drains and stops the daemon.
    }
    let out = child.wait_with_output().expect("dsed exit");
    assert!(out.status.success(), "dsed failed: {out:?}");

    let responses: Vec<Response> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_response)
        .collect();
    assert_eq!(responses.len(), requests.len());
    let mut ids: Vec<&str> = responses.iter().map(|r| r.id.as_str()).collect();
    ids.sort_unstable();
    let mut expected = [
        "sum-run-1",
        "sum-run-2",
        "sum-comment",
        "sum-check",
        "fill-run-1",
        "fill-run-2",
        "fill-edit",
        "fill-compile",
    ];
    expected.sort_unstable();
    assert_eq!(ids, expected);
    for r in &responses {
        assert!(r.ok, "request `{}` failed: {:?}", r.id, r.error);
    }
    // Identical programs resolve to identical keys, so across the batch
    // the cache must have served artifacts (hit or dedup).
    let hits: usize = responses.iter().map(Response::cache_hits).sum();
    assert!(hits > 0, "no cache hits across a batch with duplicates");
    // The run responses carry the program's outputs.
    let sum_run = responses.iter().find(|r| r.id == "sum-run-1").unwrap();
    assert_eq!(sum_run.out_long, vec![35500]);
    let comment_run = responses.iter().find(|r| r.id == "sum-comment").unwrap();
    assert_eq!(comment_run.out_long, vec![35500]);

    // The final stderr line is the cumulative ServerStats document.
    let stderr = String::from_utf8(out.stderr).unwrap();
    let stats_line = stderr
        .lines()
        .rev()
        .find(|l| l.trim_start().starts_with('{'))
        .expect("stats line on stderr");
    let stats = Json::parse(stats_line.trim()).unwrap();
    assert_eq!(int(&stats, &["requests"]), 8);
    assert_eq!(int(&stats, &["failures"]), 0);
    let total_hits: i64 = arr(&stats, &["phases"])
        .iter()
        .map(|p| int(p, &["hits"]) + int(p, &["dedups"]))
        .sum();
    assert!(total_hits > 0);

    // Telemetry JSONL: one line per request, each with a phases array.
    let telem = std::fs::read_to_string(&telemetry).unwrap();
    let lines: Vec<&str> = telem.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), 8);
    for l in lines {
        let j = Json::parse(l).unwrap();
        assert!(j.get("phases").and_then(Json::as_arr).is_some());
    }
    let _ = std::fs::remove_file(&telemetry);
}

/// A request line nested past the JSON parser's depth cap is a bad
/// request, not a stack overflow, and so is the retired `metrics`
/// command: the request after them is answered and the daemon exits
/// cleanly.
#[test]
fn deeply_nested_line_is_a_bad_request() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dsed"))
        .args(["--batch", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dsed");
    let mut stdin = child.stdin.take().expect("stdin");
    writeln!(stdin, "{}", "[".repeat(200_000)).unwrap();
    writeln!(stdin, r#"{{"id":"m","cmd":"metrics"}}"#).unwrap();
    writeln!(stdin, "{}", req("after", "run", PROG_SUM, 1)).unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("dsed exit");
    assert!(out.status.success(), "dsed failed: {out:?}");
    let responses: Vec<Response> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(parse_response)
        .collect();
    assert_eq!(responses.len(), 3);
    let errors: Vec<&str> = responses
        .iter()
        .filter(|r| !r.ok)
        .map(|r| r.error.as_deref().unwrap_or(""))
        .collect();
    assert_eq!(errors.len(), 2, "{errors:?}");
    assert!(
        errors[0].starts_with("bad request: ") && errors[0].contains("nesting deeper than 128"),
        "{}",
        errors[0]
    );
    // The retired `metrics` command is an unknown one.
    assert_eq!(errors[1], "bad request: unknown cmd `metrics`");
    let after = responses
        .iter()
        .find(|r| r.id == "after")
        .expect("answered");
    assert!(after.ok, "{:?}", after.error);
    assert_eq!(after.out_long, vec![35500]);
}

/// The ids of a telemetry file's lines, each of which must parse as one
/// whole JSON record.
fn telemetry_ids(path: &std::path::Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(|l| {
            let j = Json::parse(l).unwrap_or_else(|e| panic!("torn telemetry line `{l}`: {e}"));
            assert!(j.get("phases").and_then(Json::as_arr).is_some(), "{l}");
            field(&j, &["id"]).as_str().expect("an id").to_string()
        })
        .collect()
}

/// Runs `dsed --batch` with `args` over `lines` and returns its output.
fn batch(args: &[&str], lines: &[String]) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dsed"))
        .arg("--batch")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dsed");
    let mut stdin = child.stdin.take().expect("stdin");
    for l in lines {
        writeln!(stdin, "{l}").unwrap();
    }
    drop(stdin);
    child.wait_with_output().expect("dsed exit")
}

/// `--workers 0` still runs one worker: the request is answered.
#[test]
fn zero_workers_still_answer() {
    let out = batch(&["--workers", "0"], &[req("z", "run", PROG_SUM, 1)]);
    assert!(out.status.success(), "dsed failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let responses: Vec<Response> = stdout.lines().map(parse_response).collect();
    assert_eq!(responses.len(), 1, "{stdout}");
    assert!(responses[0].ok, "{:?}", responses[0].error);
    assert_eq!(responses[0].out_long, vec![35500]);
}

/// The daemon reads no files: a request that names a `path` instead of
/// sending `source` is refused without opening it (a FIFO nobody writes
/// would block the read forever), and the next request is still served.
#[test]
fn a_path_only_request_is_refused_unread() {
    use std::io::Read;
    let fifo = std::env::temp_dir().join(format!("dsed-fifo-{}", std::process::id()));
    let _ = std::fs::remove_file(&fifo);
    let made = Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("spawn mkfifo");
    assert!(made.success(), "mkfifo {}", fifo.display());
    let path_only = Json::obj(vec![
        ("id", Json::Str("p".into())),
        ("cmd", Json::Str("check".into())),
        (
            "path",
            Json::Str(fifo.to_str().expect("a UTF-8 temp path").into()),
        ),
    ]);
    let mut child = Command::new(env!("CARGO_BIN_EXE_dsed"))
        .args(["--batch", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dsed");
    let mut stdin = child.stdin.take().expect("stdin");
    writeln!(stdin, "{path_only}").unwrap();
    writeln!(stdin, "{}", req("after", "run", PROG_SUM, 1)).unwrap();
    drop(stdin);
    let mut stdout = child.stdout.take().expect("stdout");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).expect("read responses");
        let _ = tx.send(text);
    });
    let answered = rx.recv_timeout(Duration::from_secs(20));
    if answered.is_err() {
        let _ = child.kill();
    }
    let _ = child.wait();
    let _ = std::fs::remove_file(&fifo);
    let stdout = answered.expect("dsed answered within 20 s");
    let responses: Vec<Response> = stdout.lines().map(parse_response).collect();
    assert_eq!(responses.len(), 2, "{stdout}");
    let refused = responses.iter().find(|r| r.id == "p").expect("answered");
    assert!(!refused.ok);
    assert_eq!(refused.error.as_deref(), Some("request needs `source`"));
    let after = responses
        .iter()
        .find(|r| r.id == "after")
        .expect("answered");
    assert!(after.ok, "{:?}", after.error);
    assert_eq!(after.out_long, vec![35500]);
}

/// A telemetry file is appended to, never truncated: two daemons in turn
/// leave the records of both, each one whole.
#[test]
fn telemetry_file_appends_across_daemons() {
    let telemetry = std::env::temp_dir().join(format!("dsed-append-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&telemetry);
    let path = telemetry.to_str().expect("a UTF-8 temp path");
    for (first, second) in [("a1", "a2"), ("b1", "b2")] {
        let lines = [
            req(first, "check", PROG_SUM, 2),
            req(second, "compile", PROG_FILL, 2),
        ];
        let out = batch(&["--workers", "2", "--telemetry", path], &lines);
        assert!(out.status.success(), "dsed failed: {out:?}");
    }
    let mut ids = telemetry_ids(&telemetry);
    ids.sort_unstable();
    assert_eq!(ids, ["a1", "a2", "b1", "b2"]);
    let _ = std::fs::remove_file(&telemetry);
}

/// A hundred-plus-request batch populates the latency histograms: the
/// stats payload reports every request and ordered, nonzero p50/p90/p99,
/// and eight workers leave exactly one whole telemetry record per request.
#[test]
fn latency_histograms_cover_hundred_requests() {
    let telemetry = std::env::temp_dir().join(format!("dsed-latency-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&telemetry);
    let mut child = Command::new(env!("CARGO_BIN_EXE_dsed"))
        .args(["--batch", "--workers", "8"])
        .arg("--telemetry")
        .arg(&telemetry)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dsed");

    let mut stdin = child.stdin.take().expect("stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    const N: usize = 120;
    for i in 0..N {
        let prog = if i % 2 == 0 { PROG_SUM } else { PROG_FILL };
        writeln!(stdin, "{}", req(&format!("r{i}"), "run", prog, 2)).unwrap();
    }
    let mut line = String::new();
    for _ in 0..N {
        line.clear();
        assert!(
            stdout.read_line(&mut line).unwrap() > 0,
            "stdout closed early"
        );
        let r = parse_response(&line);
        assert!(r.ok, "request `{}` failed: {:?}", r.id, r.error);
    }

    // Every run is answered; `stats` carries the histograms.
    writeln!(
        stdin,
        "{}",
        Json::obj(vec![
            ("id", Json::Str("st".into())),
            ("cmd", Json::Str("stats".into())),
        ])
    )
    .unwrap();
    line.clear();
    stdout.read_line(&mut line).unwrap();
    let st = parse_response(&line);
    assert!(st.ok, "stats failed: {:?}", st.error);
    let stats = stats_payload(&line);
    assert!(int(&stats, &["requests"]) >= N as i64);
    let e2e_count = int(&stats, &["latency", "e2e", "count"]);
    assert!(
        e2e_count >= N as i64,
        "every request recorded end-to-end: {e2e_count}"
    );
    assert!(
        int(&stats, &["latency", "queue", "count"]) >= N as i64,
        "every request waited in (possibly empty) queue"
    );
    let phases = arr(&stats, &["latency", "phases"]);
    assert!(!phases.is_empty(), "per-phase histograms recorded");
    assert!(
        phases.iter().all(|p| p
            .as_arr()
            .and_then(|pair| pair.get(1))
            .is_some_and(|h| int(h, &["count"]) > 0)),
        "no empty phase histogram is exported"
    );
    let quantile = |q| int(&stats, &["latency", "e2e", q]);
    let (p50, p90, p99) = (quantile("p50"), quantile("p90"), quantile("p99"));
    assert!(p50 > 0, "p50 nonzero");
    assert!(
        p50 <= p90 && p90 <= p99,
        "quantiles ordered: {p50} {p90} {p99}"
    );

    drop(stdin);
    let out = child.wait_with_output().expect("dsed exit");
    assert!(out.status.success(), "dsed failed: {out:?}");

    // Eight workers wrote the telemetry file at once: still exactly one
    // whole record per request.
    let mut ids = telemetry_ids(&telemetry);
    ids.sort_unstable();
    let mut expected: Vec<String> = (0..N).map(|i| format!("r{i}")).collect();
    expected.push("st".to_string());
    expected.sort_unstable();
    assert_eq!(ids, expected);
    let _ = std::fs::remove_file(&telemetry);
}

/// The flags of the removed HTTP endpoint and telemetry rotation are
/// usage errors.
#[test]
fn removed_flags_are_usage_errors() {
    for flag in [
        "--metrics-addr",
        "--telemetry-max-bytes",
        "--telemetry-keep",
    ] {
        let out = batch(&[flag, "1"], &[]);
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("usage: dsed"), "{flag}: {stderr}");
    }
}

fn wait_for_socket(path: &std::path::Path, child: &mut Child) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !path.exists() {
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("dsed exited before binding: {status}");
        }
        assert!(Instant::now() < deadline, "socket never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Socket front end: concurrent clients over a unix socket, then a stats
/// request, then shutdown.
#[test]
fn socket_concurrent_clients_and_shutdown() {
    use std::os::unix::net::UnixStream;
    let sock = std::env::temp_dir().join(format!("dsed-e2e-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let mut child = Command::new(env!("CARGO_BIN_EXE_dsed"))
        .arg("--socket")
        .arg(&sock)
        .args(["--workers", "8"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dsed");
    wait_for_socket(&sock, &mut child);

    let roundtrip_line = |line: String| -> String {
        let mut conn = UnixStream::connect(&sock).expect("connect");
        writeln!(conn, "{line}").unwrap();
        let mut reader = BufReader::new(conn);
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp
    };
    let roundtrip = |line: String| parse_response(&roundtrip_line(line));

    let clients: Vec<_> = (0..8)
        .map(|n| {
            let sock = sock.clone();
            std::thread::spawn(move || {
                let mut conn = UnixStream::connect(&sock).expect("connect");
                writeln!(conn, "{}", req(&format!("s{n}"), "run", PROG_SUM, 2)).unwrap();
                let mut reader = BufReader::new(conn);
                let mut resp = String::new();
                reader.read_line(&mut resp).unwrap();
                parse_response(&resp)
            })
        })
        .collect();
    for c in clients {
        let r = c.join().unwrap();
        assert!(r.ok, "socket request `{}` failed: {:?}", r.id, r.error);
        assert_eq!(r.out_long, vec![35500]);
    }

    let stats_line = roundtrip_line(
        Json::obj(vec![
            ("id", Json::Str("st".into())),
            ("cmd", Json::Str("stats".into())),
        ])
        .to_string(),
    );
    assert!(parse_response(&stats_line).ok);
    let stats = stats_payload(&stats_line);
    assert_eq!(int(&stats, &["requests"]), 9); // 8 runs + this stats request
    for ph in arr(&stats, &["phases"]) {
        assert_eq!(
            int(ph, &["misses"]),
            1,
            "phase `{}` computed twice",
            field(ph, &["phase"])
        );
    }

    let bye = roundtrip(
        Json::obj(vec![
            ("id", Json::Str("bye".into())),
            ("cmd", Json::Str("shutdown".into())),
        ])
        .to_string(),
    );
    assert!(bye.ok);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            assert!(status.success(), "dsed shutdown status {status}");
            break;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("dsed did not exit after shutdown");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(!sock.exists(), "socket file not cleaned up");
}

/// A client that sends `shutdown` and hangs up before reading the answer
/// still stops the daemon: the failed write does not skip the wake-up of
/// the accept loop.
#[test]
fn shutdown_from_a_client_that_hung_up_still_exits() {
    use std::os::unix::net::UnixStream;
    let sock = std::env::temp_dir().join(format!("dsed-hangup-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let mut child = Command::new(env!("CARGO_BIN_EXE_dsed"))
        .arg("--socket")
        .arg(&sock)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dsed");
    wait_for_socket(&sock, &mut child);

    let mut conn = UnixStream::connect(&sock).expect("connect");
    // Closing our read half first makes the daemon's answer fail to send.
    conn.shutdown(std::net::Shutdown::Read).unwrap();
    writeln!(conn, r#"{{"id":"bye","cmd":"shutdown"}}"#).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("dsed did not exit after shutdown");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "dsed shutdown status {status}");
    assert!(!sock.exists(), "socket file not cleaned up");
}

/// Each socket response leaves in one write: a client's first `read` of
/// a large buffer returns the whole line, for runs, checks and stats.
#[test]
fn one_read_gets_the_whole_response_line() {
    use std::io::Read;
    use std::os::unix::net::UnixStream;
    let sock = std::env::temp_dir().join(format!("dsed-oneread-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let mut child = Command::new(env!("CARGO_BIN_EXE_dsed"))
        .arg("--socket")
        .arg(&sock)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dsed");
    wait_for_socket(&sock, &mut child);

    let mut conn = UnixStream::connect(&sock).expect("connect");
    let stats = r#"{"id":"st","cmd":"stats"}"#.to_string();
    let mut lines: Vec<String> = (0..10)
        .map(|n| req(&format!("fill-{n}"), "run", PROG_FILL, 2))
        .collect();
    lines.push(req("sum-check", "check", PROG_SUM, 2));
    lines.push(stats);
    let mut buf = vec![0u8; 1 << 20];
    for line in &lines {
        writeln!(conn, "{line}").unwrap();
        let n = conn.read(&mut buf).expect("read");
        let got = std::str::from_utf8(&buf[..n]).expect("utf-8");
        assert!(
            got.ends_with('\n') && got.matches('\n').count() == 1,
            "one read returned {n} bytes, not one whole line: {got:?}"
        );
        assert!(parse_response(got).ok, "{got}");
    }

    writeln!(conn, r#"{{"id":"bye","cmd":"shutdown"}}"#).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("dsed did not exit after shutdown");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "dsed shutdown status {status}");
}
