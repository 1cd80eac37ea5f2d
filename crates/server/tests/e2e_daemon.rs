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

/// The value of one sample line of a Prometheus text exposition.
fn sample(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("no `{series}` sample in:\n{text}"))
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
/// request, not a stack overflow: the request after it is answered and the
/// daemon exits cleanly.
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
    writeln!(stdin, "{}", req("after", "run", PROG_SUM, 1)).unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("dsed exit");
    assert!(out.status.success(), "dsed failed: {out:?}");
    let responses: Vec<Response> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(parse_response)
        .collect();
    assert_eq!(responses.len(), 2);
    let bad = responses.iter().find(|r| !r.ok).expect("a rejected line");
    let error = bad.error.as_deref().unwrap_or("");
    assert!(
        error.starts_with("bad request: ") && error.contains("nesting deeper than 128"),
        "{error}"
    );
    let after = responses
        .iter()
        .find(|r| r.id == "after")
        .expect("answered");
    assert!(after.ok, "{:?}", after.error);
    assert_eq!(after.out_long, vec![35500]);
}

/// A hundred-plus-request batch populates the latency histograms: the
/// stats payload reports nonzero p50/p90/p99 over every request, and the
/// `--metrics-addr` HTTP endpoint serves matching Prometheus quantile
/// lines while the daemon is live.
#[test]
fn latency_histograms_cover_hundred_requests() {
    use std::io::Read as _;
    use std::net::TcpStream;

    let mut child = Command::new(env!("CARGO_BIN_EXE_dsed"))
        .args(["--batch", "--workers", "8", "--metrics-addr", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dsed");

    // The daemon announces the resolved (ephemeral) metrics address on
    // stderr before serving.
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr"));
    let metrics_addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).unwrap() > 0,
            "stderr closed before the metrics line"
        );
        if let Some(rest) = line.trim().strip_prefix("dsed: metrics on http://") {
            break rest.trim_end_matches("/metrics").to_string();
        }
    };

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

    // Every run is answered; scrape the live HTTP endpoint.
    let mut conn = TcpStream::connect(&metrics_addr).expect("connect metrics");
    write!(conn, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    conn.flush().unwrap();
    let mut http = String::new();
    conn.read_to_string(&mut http).unwrap();
    assert!(http.starts_with("HTTP/1.0 200 OK"), "bad response: {http}");
    let body = http.split("\r\n\r\n").nth(1).expect("http body");
    let total: f64 = body
        .lines()
        .find_map(|l| l.strip_prefix("dsed_requests_total ")?.trim().parse().ok())
        .expect("request counter in exposition");
    assert!(total >= N as f64, "counter covers the batch: {total}");
    for series in [
        "dsed_request_latency_seconds{quantile=\"0.5\"}",
        "dsed_request_latency_seconds{quantile=\"0.99\"}",
        "dsed_queue_wait_seconds{quantile=\"0.9\"}",
        "dsed_request_latency_seconds_count",
    ] {
        assert!(body.contains(series), "missing `{series}` in:\n{body}");
    }

    // The protocol view of the same histograms: `stats` carries the raw
    // buckets, `metrics` the same text as HTTP.
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
    // Satellite counters: the task pool saw the whole batch.
    assert!(int(&stats, &["taskpool", "submitted"]) >= N as i64);
    assert!(
        int(&stats, &["taskpool", "queued_peak"]) >= 1,
        "the batch outran 8 workers"
    );

    writeln!(
        stdin,
        "{}",
        Json::obj(vec![
            ("id", Json::Str("m".into())),
            ("cmd", Json::Str("metrics".into())),
        ])
    )
    .unwrap();
    line.clear();
    stdout.read_line(&mut line).unwrap();
    let m = parse_response(&line);
    assert!(m.ok);
    let text = m.metrics.expect("metrics text in protocol response");
    assert!(text.contains("dsed_request_latency_seconds_count"));
    assert!(text.contains("dsed_taskpool_submitted_total"));
    // The same end-to-end histogram's quantiles (one request more).
    let quantile = |q| {
        sample(
            &text,
            &format!("dsed_request_latency_seconds{{quantile=\"{q}\"}}"),
        )
    };
    let (p50, p90, p99) = (quantile("0.5"), quantile("0.9"), quantile("0.99"));
    assert!(p50 > 0.0, "p50 nonzero");
    assert!(
        p50 <= p90 && p90 <= p99,
        "quantiles ordered: {p50} {p90} {p99}"
    );

    drop(stdin);
    let out = child.wait_with_output().expect("dsed exit");
    assert!(out.status.success(), "dsed failed: {out:?}");
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
