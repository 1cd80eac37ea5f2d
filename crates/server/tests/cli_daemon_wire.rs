//! `dsec --daemon` is a thin client: every option with a wire equivalent
//! must reach the daemon with the value given on the command line, or the
//! CLI and the daemon silently run different configurations.

use dse_telemetry::Json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::Command;

#[test]
fn every_option_with_a_wire_equivalent_is_sent() {
    let sock = std::env::temp_dir().join(format!("dsec-wire-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let listener = UnixListener::bind(&sock).expect("bind stub daemon");
    // The stub daemon: capture the one request line, answer success.
    let daemon = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("dsec connects");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("request line");
        reader
            .get_mut()
            .write_all(b"{\"id\":\"dsec\",\"ok\":true,\"exit\":0}\n")
            .expect("response");
        line
    });

    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/doacross_sum.cee");
    let status = Command::new(env!("CARGO_BIN_EXE_dsec"))
        .arg(&fixture)
        .args(["--run", "--threads", "3", "--opt", "noconst", "--baseline"])
        .args([
            "--serial",
            "--strict",
            "--exec-backend",
            "reg",
            "--in",
            "5,7",
        ])
        .arg("--daemon")
        .arg(&sock)
        .status()
        .expect("spawn dsec");
    let line = daemon.join().expect("stub daemon");
    let _ = std::fs::remove_file(&sock);
    assert!(status.success(), "dsec relays the daemon's exit code 0");

    let req = Json::parse(line.trim()).expect("request is one JSON line");
    let field = |name: &str| {
        req.get(name)
            .unwrap_or_else(|| panic!("`{name}` missing from {line}"))
    };
    assert_eq!(field("cmd").as_str(), Some("run"));
    assert_eq!(field("threads").as_i64(), Some(3));
    assert_eq!(field("opt").as_str(), Some("noconst"));
    assert_eq!(field("baseline").as_bool(), Some(true));
    assert_eq!(field("serial").as_bool(), Some(true));
    assert_eq!(field("strict").as_bool(), Some(true));
    assert_eq!(field("exec_backend").as_str(), Some("reg"));
    let inputs: Vec<i64> = field("in")
        .as_arr()
        .expect("`in` is an array")
        .iter()
        .filter_map(Json::as_i64)
        .collect();
    assert_eq!(inputs, [5, 7]);
    let source = std::fs::read_to_string(&fixture).unwrap();
    assert_eq!(field("source").as_str(), Some(source.as_str()));
}
