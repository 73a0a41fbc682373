//! End-to-end CLI test: gen → stats → build → query → check, driving the
//! compiled `hopi` binary the way a user would.

use std::path::PathBuf;
use std::process::Command;

fn hopi() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hopi"))
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hopi_cli_e2e_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_workflow() {
    let docs = tempdir("docs");
    let index = docs.join("out.idx");

    // gen
    let out = hopi()
        .args(["gen", "--kind", "dblp", "--scale", "0.003", "--out"])
        .arg(&docs)
        .output()
        .expect("run gen");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let xml_files = std::fs::read_dir(&docs)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "xml")
        })
        .count();
    assert!(
        xml_files > 5,
        "expected generated XML files, got {xml_files}"
    );

    // stats
    let out = hopi().args(["stats", "--dir"]).arg(&docs).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("docs"), "stats output: {text}");

    // build
    let out = hopi()
        .args(["build", "--dir"])
        .arg(&docs)
        .args(["--out"])
        .arg(&index)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(index.exists());

    // stats --index: engine + serving-snapshot statistics
    let out = hopi()
        .args(["stats", "--dir"])
        .arg(&docs)
        .args(["--index"])
        .arg(&index)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cover entries"), "stats --index: {text}");
    assert!(text.contains("snapshot: epoch 0"), "stats --index: {text}");
    // The generated collection carries Zipf text; the term index reports it.
    assert!(text.contains("text: "), "stats --index: {text}");
    assert!(text.contains("texted elements"), "stats --index: {text}");

    // query
    let out = hopi()
        .args(["query", "--dir"])
        .arg(&docs)
        .args(["--index"])
        .arg(&index)
        .arg("//article//author")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("matches"), "query stderr: {stderr}");

    // Content-and-structure query: `term0` is the generator's hottest
    // Zipf term, so the predicate finds texted authors.
    let out = hopi()
        .args(["query", "--dir"])
        .arg(&docs)
        .args(["--index"])
        .arg(&index)
        .arg(r#"//article//author[contains(., "term0")]"#)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("matches"), "content query stderr: {stderr}");

    // query --ranked needs a distance-aware index; this one is plain, so
    // the CLI reports the typed engine error instead of panicking.
    let out = hopi()
        .args(["query", "--dir"])
        .arg(&docs)
        .args(["--index"])
        .arg(&index)
        .arg("--ranked")
        .arg("//article//author")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("distance_aware"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // query --explain: same matches, plus a per-step plan on stderr.
    let out = hopi()
        .args(["query", "--dir"])
        .arg(&docs)
        .args(["--index"])
        .arg(&index)
        .arg("--explain")
        .arg("//article//author")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("strategy="), "explain stderr: {stderr}");
    assert!(stderr.contains("step 0"), "explain stderr: {stderr}");

    // check (index vs BFS oracle)
    let out = hopi()
        .args(["check", "--dir"])
        .arg(&docs)
        .args(["--index"])
        .arg(&index)
        .args(["--samples", "5000"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));

    std::fs::remove_dir_all(&docs).ok();
}

/// `hopi serve`: boots on a random port, answers over HTTP, and shuts
/// down gracefully when stdin closes (exit code 0).
#[test]
fn serve_boots_answers_and_shuts_down_on_stdin_eof() {
    use std::io::{BufRead, BufReader, Read, Write};

    let docs = tempdir("serve");
    std::fs::write(docs.join("a.xml"), r#"<r><x href="b"/></r>"#).unwrap();
    std::fs::write(docs.join("b.xml"), "<r><sec/></r>").unwrap();

    let mut child = hopi()
        .args(["serve", "--dir"])
        .arg(&docs)
        .args(["--port", "0", "--threads", "2"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn hopi serve");

    // The bound address is announced on stdout once serving starts.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(
            stdout.read_line(&mut line).unwrap() > 0,
            "serve exited before announcing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("hopi-server listening on http://") {
            break rest.to_string();
        }
    };

    // One raw HTTP exchange: /healthz answers 200 with a JSON body.
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect to serve");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut resp = String::new();
    stream.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 200"), "healthz: {resp}");
    assert!(resp.contains("\"ok\":true"), "healthz: {resp}");

    // Closing stdin is the graceful-shutdown signal.
    drop(child.stdin.take());
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exited with {status:?}");
    std::fs::remove_dir_all(&docs).ok();
}

#[test]
fn helpful_errors() {
    let out = hopi().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = hopi()
        .args(["stats", "--dir", "/no/such/dir"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let out = hopi().args(["build", "--dir"]).output().unwrap();
    assert!(!out.status.success());

    let out = hopi().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn query_parse_error_reported() {
    let docs = tempdir("parse_err");
    std::fs::write(docs.join("a.xml"), "<r/>").unwrap();
    let index = docs.join("i.idx");
    assert!(hopi()
        .args(["build", "--dir"])
        .arg(&docs)
        .args(["--out"])
        .arg(&index)
        .output()
        .unwrap()
        .status
        .success());
    let out = hopi()
        .args(["query", "--dir"])
        .arg(&docs)
        .args(["--index"])
        .arg(&index)
        .arg("not-a-path")
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&docs).ok();
}

/// `hopi build --mode flat` writes an index that answers a query as the
/// default mode's index does; an unknown mode is refused with the list of
/// known ones.
#[test]
fn build_modes() {
    let docs = tempdir("modes");
    let out = hopi()
        .args(["gen", "--kind", "dblp", "--scale", "0.003", "--out"])
        .arg(&docs)
        .output()
        .unwrap();
    assert!(out.status.success());
    let build = |mode: &str| {
        hopi()
            .args(["build", "--dir"])
            .arg(&docs)
            .args(["--out"])
            .arg(docs.join(format!("{mode}.idx")))
            .args(["--mode", mode])
            .output()
            .unwrap()
    };
    let query = |mode: &str| {
        let out = hopi()
            .args(["query", "--dir"])
            .arg(&docs)
            .args(["--index"])
            .arg(docs.join(format!("{mode}.idx")))
            .arg("//article//author")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    for mode in ["default", "flat"] {
        let out = build(mode);
        assert!(
            out.status.success(),
            "{mode}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let matches = query("default");
    assert!(!matches.is_empty(), "no match to compare");
    assert_eq!(query("flat"), matches);

    let out = build("old");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("default|flat"), "stderr: {stderr}");
    assert!(!docs.join("old.idx").exists());
    std::fs::remove_dir_all(&docs).ok();
}

/// `hopi query --ranked --k N` prints the best `N` matches: the library
/// returns every ranked match, so the cut is the CLI's own.
#[test]
fn ranked_query_keeps_the_best_k() {
    let docs = tempdir("ranked");
    let files = [
        ("a", r#"<r><cite xlink:href="b"/><x/></r>"#),
        ("b", "<r><s><x/><x/></s></r>"),
    ];
    for (name, xml) in files {
        std::fs::write(docs.join(format!("{name}.xml")), xml).unwrap();
    }
    let index = docs.join("dist.idx");
    hopi_build::Hopi::builder()
        .distance_aware(true)
        .parse(files)
        .unwrap()
        .save_frozen(&index)
        .unwrap();
    let ranked = |k: Option<&str>| {
        let mut cmd = hopi();
        cmd.args(["query", "--ranked", "--dir"])
            .arg(&docs)
            .args(["--index"])
            .arg(&index);
        if let Some(k) = k {
            cmd.args(["--k", k]);
        }
        let out = cmd.arg("//r//*").output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        stdout.lines().map(str::to_owned).collect::<Vec<_>>()
    };
    let all = ranked(None);
    assert!(all.len() > 2, "ranked matches: {all:?}");
    assert_eq!(ranked(Some("2")), all[..2]);
    assert_eq!(ranked(Some("100")), all);
    std::fs::remove_dir_all(&docs).ok();
}

/// `hopi serve --wal`: acked HTTP mutations survive a SIGKILL. Boots a
/// durable server, mutates, kills the process without checkpointing,
/// restarts on the same state directory, and verifies recovery.
#[test]
fn serve_wal_survives_kill_dash_nine() {
    use std::io::{BufRead, BufReader, Read, Write};

    // Keep the stdout reader alive alongside the child: dropping it would
    // close the pipe and make the server's own prints fail.
    fn spawn_durable(
        docs: &PathBuf,
        state: &PathBuf,
    ) -> (
        std::process::Child,
        String,
        BufReader<std::process::ChildStdout>,
    ) {
        let mut child = hopi()
            .args(["serve", "--dir"])
            .arg(docs)
            .args(["--wal"])
            .arg(state)
            .args(["--port", "0", "--threads", "2"])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn hopi serve --wal");
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        let addr = loop {
            line.clear();
            assert!(
                stdout.read_line(&mut line).unwrap() > 0,
                "serve exited before announcing its address"
            );
            if let Some(rest) = line.trim().strip_prefix("hopi-server listening on http://") {
                break rest.to_string();
            }
        };
        (child, addr, stdout)
    }

    fn exchange(addr: &str, request: &str) -> String {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        resp
    }

    let docs = tempdir("wal_docs");
    let state = tempdir("wal_state");
    std::fs::write(docs.join("a.xml"), r#"<r><x href="b"/></r>"#).unwrap();
    std::fs::write(docs.join("b.xml"), "<r><sec/></r>").unwrap();

    let (mut child, addr, _stdout) = spawn_durable(&docs, &state);
    // Mutate over HTTP: insert a document citing b, and a raw link.
    let body = r#"<note><cite xlink:href="b"/></note>"#;
    let resp = exchange(
        &addr,
        &format!(
            "POST /documents?name=survivor HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(resp.starts_with("HTTP/1.1 200"), "insert: {resp}");
    let resp = exchange(
        &addr,
        "POST /links?from=3&to=0 HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\
         Connection: close\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 200"), "link: {resp}");

    // kill -9: no graceful shutdown, no checkpoint.
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");

    // Restart on the same state directory; the WAL tail replays.
    let (mut child, addr, mut stdout2) = spawn_durable(&docs, &state);
    let resp = exchange(
        &addr,
        "GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 200"), "stats: {resp}");
    assert!(resp.contains("\"durable\":true"), "stats: {resp}");
    assert!(resp.contains("\"documents\":3"), "stats: {resp}");
    // The inserted document's root (element 4) still reaches b's sec (3)
    // through its citation, and the raw link 3 → 0 survived.
    let resp = exchange(
        &addr,
        "GET /connected?u=4&v=3 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert!(resp.contains("\"connected\":true"), "doc replay: {resp}");
    let resp = exchange(
        &addr,
        "GET /connected?u=3&v=0 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert!(resp.contains("\"connected\":true"), "link replay: {resp}");

    // Graceful shutdown this time (writes a checkpoint on the way out).
    drop(child.stdin.take());
    let mut rest = String::new();
    stdout2.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("checkpointed at WAL seq"), "shutdown: {rest}");
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exited with {status:?}");

    std::fs::remove_dir_all(&docs).ok();
    std::fs::remove_dir_all(&state).ok();
}
