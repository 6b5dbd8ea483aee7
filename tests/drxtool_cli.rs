//! End-to-end test of the `drxtool` CLI: every invocation is a separate
//! process, so this exercises true on-disk persistence of the array file
//! pair (including metadata survival across extensions).

use std::path::PathBuf;
use std::process::{Command, Output};

fn tool(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_drxtool"))
        .arg(args[0])
        .arg(dir)
        .args(&args[1..])
        .output()
        .expect("spawn drxtool")
}

fn ok_stdout(dir: &PathBuf, args: &[&str]) -> String {
    let out = tool(dir, args);
    assert!(
        out.status.success(),
        "drxtool {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).to_string()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("drxtool-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn full_lifecycle_across_processes() {
    let dir = tmpdir("life");
    ok_stdout(
        &dir,
        &[
            "create",
            "a",
            "--dtype",
            "f64",
            "--chunk",
            "2x3",
            "--bounds",
            "10x12",
            "--servers",
            "2",
            "--stripe",
            "256",
        ],
    );
    ok_stdout(&dir, &["set", "a", "--index", "9x7", "--value", "3.5"]);
    assert_eq!(ok_stdout(&dir, &["get", "a", "--index", "9x7"]).trim(), "3.5");
    // Extend a non-primary dimension in a separate process; data survives.
    ok_stdout(&dir, &["extend", "a", "--dim", "1", "--by", "6"]);
    assert_eq!(ok_stdout(&dir, &["get", "a", "--index", "9x7"]).trim(), "3.5");
    assert_eq!(ok_stdout(&dir, &["get", "a", "--index", "9x17"]).trim(), "0");
    let info = ok_stdout(&dir, &["info", "a"]);
    assert!(info.contains("bounds     : 10×18"), "{info}");
    assert!(info.contains("chunk grid : 5×6"), "{info}");
    let axial = ok_stdout(&dir, &["axial", "a"]);
    assert!(axial.contains("D1: N*=4"), "{axial}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn i64_arrays_and_multiple_names() {
    let dir = tmpdir("i64");
    ok_stdout(&dir, &["create", "x", "--dtype", "i64", "--chunk", "4", "--bounds", "16"]);
    ok_stdout(&dir, &["create", "y", "--dtype", "f64", "--chunk", "4", "--bounds", "8"]);
    ok_stdout(&dir, &["set", "x", "--index", "15", "--value", "42"]);
    assert_eq!(ok_stdout(&dir, &["get", "x", "--index", "15"]).trim(), "42");
    assert_eq!(ok_stdout(&dir, &["get", "y", "--index", "3"]).trim(), "0");
    let info = ok_stdout(&dir, &["info", "x"]);
    assert!(info.contains("int64"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dump_renders_grids_and_regions() {
    let dir = tmpdir("dump");
    ok_stdout(&dir, &["create", "m", "--dtype", "i64", "--chunk", "2x2", "--bounds", "4x4"]);
    ok_stdout(&dir, &["set", "m", "--index", "1x2", "--value", "7"]);
    let full = ok_stdout(&dir, &["dump", "m"]);
    assert!(full.contains("[   1] 0 0 7 0"), "{full}");
    assert_eq!(full.lines().count(), 4);
    let sub = ok_stdout(&dir, &["dump", "m", "--lo", "1x1", "--hi", "2x4"]);
    assert_eq!(sub.trim(), "[   1] 0 7 0");
    // 1-D arrays dump as index = value lines.
    ok_stdout(&dir, &["create", "v", "--dtype", "f64", "--chunk", "2", "--bounds", "4"]);
    ok_stdout(&dir, &["set", "v", "--index", "3", "--value", "1.5"]);
    let v = ok_stdout(&dir, &["dump", "v"]);
    assert!(v.contains("[3] = 1.5"), "{v}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_and_client_over_tcp() {
    let dir = tmpdir("serve");
    ok_stdout(&dir, &["create", "grid", "--dtype", "f64", "--chunk", "2x2", "--bounds", "6x6"]);
    ok_stdout(&dir, &["set", "grid", "--index", "3x4", "--value", "7.25"]);
    // Port 0 is not supported by the CLI (the client needs a known port),
    // so derive one from the pid to keep parallel test runs apart.
    let port = 20000 + (std::process::id() % 20000);
    let addr = format!("127.0.0.1:{port}");
    let mut server = Command::new(env!("CARGO_BIN_EXE_drxtool"))
        .args(["serve"])
        .arg(&dir)
        .args(["--addr", &addr, "--threads", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn drxtool serve");
    // Wait for the listener to come up.
    let mut connected = false;
    for _ in 0..100 {
        if std::net::TcpStream::connect(&addr).is_ok() {
            connected = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(connected, "server never started listening on {addr}");

    let client = |args: &[&str]| -> Output {
        Command::new(env!("CARGO_BIN_EXE_drxtool"))
            .args(["client", &addr])
            .args(args)
            .output()
            .expect("spawn drxtool client")
    };
    let get = client(&["get", "grid", "--index", "3x4"]);
    assert!(get.status.success(), "{}", String::from_utf8_lossy(&get.stderr));
    assert_eq!(String::from_utf8_lossy(&get.stdout).trim(), "7.25");

    let set = client(&["set", "grid", "--index", "0x1", "--value", "2.5"]);
    assert!(set.status.success(), "{}", String::from_utf8_lossy(&set.stderr));
    let get2 = client(&["get", "grid", "--index", "0x1"]);
    assert_eq!(String::from_utf8_lossy(&get2.stdout).trim(), "2.5");

    let info = client(&["info", "grid"]);
    let text = String::from_utf8_lossy(&info.stdout).to_string();
    assert!(info.status.success());
    assert!(text.contains("bounds     : 6×6"), "{text}");
    assert!(text.contains("float64"), "{text}");

    // Opening a name the server does not have is an error, not a hang.
    let missing = client(&["get", "nope", "--index", "0x0"]);
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("drxtool:"));

    server.kill().expect("kill server");
    server.wait().expect("reap server");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_rejects_bad_arguments() {
    let dir = tmpdir("serve-bad");
    // Serving a directory that does not exist.
    let out = tool(&dir, &["serve", "--addr", "127.0.0.1:0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("drxtool:"));
    // Serving without --addr.
    ok_stdout(&dir, &["create", "a", "--dtype", "f64", "--chunk", "2", "--bounds", "4"]);
    let out = tool(&dir, &["serve"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--addr"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Serving on an unresolvable address.
    let out = tool(&dir, &["serve", "--addr", "host.invalid:1"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot serve"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn client_rejects_bad_address_and_usage() {
    // Connecting to a port nothing listens on fails cleanly.
    let out = Command::new(env!("CARGO_BIN_EXE_drxtool"))
        .args(["client", "127.0.0.1:1", "info", "a"])
        .output()
        .expect("spawn drxtool client");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot connect"));
    // Unparseable address.
    let out = Command::new(env!("CARGO_BIN_EXE_drxtool"))
        .args(["client", "not-an-address", "info", "a"])
        .output()
        .expect("spawn drxtool client");
    assert!(!out.status.success());
    // Missing subcommand arguments exit with usage (status 2).
    let out = Command::new(env!("CARGO_BIN_EXE_drxtool"))
        .args(["client", "127.0.0.1:1"])
        .output()
        .expect("spawn drxtool client");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn errors_are_reported_not_panicked() {
    let dir = tmpdir("err");
    // Operating on a missing directory/array.
    let out = tool(&dir, &["info", "missing"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("drxtool:"));
    // Out-of-bounds get after create.
    ok_stdout(&dir, &["create", "a", "--dtype", "f64", "--chunk", "2", "--bounds", "4"]);
    // A misspelled name fails without leaving stray streams behind.
    let out = tool(&dir, &["info", "missing"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not found"));
    for server in std::fs::read_dir(&dir).unwrap() {
        let server = server.unwrap().path();
        for stray in ["missing.xmd", "missing.xta"] {
            assert!(!server.join(stray).exists(), "stray {}", server.join(stray).display());
        }
    }
    let out = tool(&dir, &["get", "a", "--index", "9"]);
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).unwrap();
}
