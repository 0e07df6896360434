//! End-to-end HTTP service tests: boot on an ephemeral port, ingest over
//! the wire, poll verdicts, saturate the queue to see 429s, validate
//! `/metrics`, drain gracefully, and recover across a restart.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use corroborate_obs::Json;
use corroborate_serve::{start, EpochConfig, ServerConfig, WalConfig};

/// A minimal blocking HTTP/1.1 client for one request; returns the raw
/// body and the response's `Content-Type`.
fn request_raw(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: impl AsRef<[u8]>,
) -> (u16, String, String) {
    let body = body.as_ref();
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    writer.write_all(body).unwrap();
    writer.flush().unwrap();

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line.split_whitespace().nth(1).unwrap().parse().unwrap();
    let mut content_length = 0usize;
    let mut content_type = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let lower = line.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap();
        }
        if let Some(v) = lower.strip_prefix("content-type:") {
            content_type = v.trim().to_string();
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap(), content_type)
}

/// [`request_raw`] with the body parsed as JSON.
fn request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: impl AsRef<[u8]>,
) -> (u16, Json) {
    let (status, body, _) = request_raw(addr, method, path, body);
    (status, Json::parse(&body).unwrap())
}

fn poll_until(deadline: Duration, mut check: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if check() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("corroborate-http-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        read_timeout: Duration::from_millis(500),
        epoch_linger: Duration::from_millis(5),
        ..Default::default()
    }
}

#[test]
fn ingest_then_query_roundtrip() {
    let handle = start(test_config()).unwrap();
    let addr = handle.addr();

    let (status, body) = request(
        addr,
        "POST",
        "/v1/votes",
        r#"{"votes":[{"source":"alice","fact":"sky is blue","vote":"T"},
                    {"source":"bob","fact":"sky is blue","vote":"T"},
                    {"source":"mallory","fact":"sky is blue","vote":"F"}]}"#,
    );
    assert_eq!(status, 202, "{}", body.to_json());
    assert_eq!(body.get("accepted").unwrap().as_i64(), Some(3));

    // The epoch thread publishes asynchronously; poll for the verdict.
    assert!(poll_until(Duration::from_secs(10), || {
        let (s, _) = request(addr, "GET", "/v1/facts/sky%20is%20blue", "");
        s == 200
    }));
    let (_, fact) = request(addr, "GET", "/v1/facts/sky%20is%20blue", "");
    assert_eq!(fact.get("fact").unwrap().as_str(), Some("sky is blue"));
    assert!(fact.get("probability").is_some());
    assert_eq!(fact.get("votes").unwrap().as_array().unwrap().len(), 3);

    let (status, trust) = request(addr, "GET", "/v1/sources/alice/trust", "");
    assert_eq!(status, 200);
    assert!(trust.get("trust").is_some());

    let (status, _) = request(addr, "GET", "/v1/facts/never-heard-of-it", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/v1/sources/nobody/trust", "");
    assert_eq!(status, 404);

    let (status, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));

    handle.shutdown().unwrap();
}

/// Percent-encodes every byte of `name` outside the URL-unreserved set.
fn percent_encode(name: &str) -> String {
    name.bytes()
        .map(|b| match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                (b as char).to_string()
            }
            _ => format!("%{b:02X}"),
        })
        .collect()
}

#[test]
fn malformed_requests_get_4xx() {
    let handle = start(test_config()).unwrap();
    let addr = handle.addr();

    // Each rejected ingest body answers 400 with its exact error text.
    let rejected: [(&[u8], &str); 12] = [
        (b"{\"sources\":[\"\xff\"]}", "body is not UTF-8"),
        (b"this is not json", "invalid JSON: JSON parse error at byte 0: expected 'true'"),
        (
            br#"{"votes":[{"source":"a",}]}"#,
            r#"invalid JSON: JSON parse error at byte 24: expected '"'"#,
        ),
        (br#"{"sources":"a"}"#, r#""sources" must be an array"#),
        (br#"{"sources":["a",1]}"#, r#""sources" entries must be strings"#),
        (br#"{"sources":["a",""]}"#, "empty source name"),
        (br#"{"facts":[{"label":true}]}"#, r#""facts" entries need a "name" string"#),
        (
            br#"{"facts":[{"name":"f","label":"yes"}]}"#,
            r#"fact "label" must be true, false, or null"#,
        ),
        (br#"{"votes":[{"source":"a"}]}"#, r#""votes" entries need a "fact" string"#),
        (br#"{"votes":[{"source":"a","fact":"f","vote":"X"}]}"#, r#"vote must be "T" or "F""#),
        (br#"{"votes":[{"fact":"f","vote":"T"}]}"#, r#""votes" entries need a "source" string"#),
        (b"{}", "no mutations in request"),
    ];
    for (body, error) in rejected {
        let (status, reply) = request(addr, "POST", "/v1/votes", body);
        assert_eq!(status, 400, "{}", String::from_utf8_lossy(body));
        assert_eq!(reply.get("error").and_then(Json::as_str), Some(error));
    }

    // Escaped names decode on ingest and read back by their decoded text.
    let (status, reply) = request(
        addr,
        "POST",
        "/v1/votes",
        r#"{"sources":["say \"hi\""],
            "facts":[{"name":"back\\slash","label":null}],
            "votes":[{"source":"say \"hi\"","fact":"back\\slash","vote":"T"},
                     {"source":"s\u00e9","fact":"caf\u00e9","vote":"F"},
                     {"source":"say \"hi\"","fact":"grin \ud83d\ude00","vote":"T"}]}"#,
    );
    assert_eq!(status, 202, "{}", reply.to_json());
    assert_eq!(reply.get("accepted").and_then(Json::as_i64), Some(5));
    for name in ["back\\slash", "caf\u{e9}", "grin \u{1f600}"] {
        let path = format!("/v1/facts/{}", percent_encode(name));
        assert!(poll_until(Duration::from_secs(10), || request(addr, "GET", &path, "").0 == 200));
        let (_, fact) = request(addr, "GET", &path, "");
        assert_eq!(fact.get("fact").and_then(Json::as_str), Some(name));
    }
    let (_, fact) = request(addr, "GET", &format!("/v1/facts/{}", percent_encode("caf\u{e9}")), "");
    let votes = fact.get("votes").and_then(Json::as_array).unwrap();
    assert_eq!(votes[0].get("source").and_then(Json::as_str), Some("s\u{e9}"));
    let (status, _) =
        request(addr, "GET", &format!("/v1/sources/{}/trust", percent_encode("say \"hi\"")), "");
    assert_eq!(status, 200);

    let (status, _) = request(addr, "GET", "/v1/nope", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "DELETE", "/v1/votes", "");
    assert_eq!(status, 405);

    // Oversized body → 413.
    let config = ServerConfig { max_body_bytes: 64, ..test_config() };
    let small = start(config).unwrap();
    let big = format!(r#"{{"votes":[{{"source":"{}","fact":"f","vote":"T"}}]}}"#, "s".repeat(200));
    let (status, _) = request(small.addr(), "POST", "/v1/votes", &big);
    assert_eq!(status, 413);

    small.shutdown().unwrap();
    handle.shutdown().unwrap();
}

#[test]
fn saturated_queue_answers_429_and_recovers() {
    // A tiny queue and a slow epoch cadence guarantee overflow.
    let config = ServerConfig {
        queue_capacity: 8,
        epoch_linger: Duration::from_millis(300),
        epoch_max_batch: 2,
        ..test_config()
    };
    let handle = start(config).unwrap();
    let addr = handle.addr();

    let mut saw_429 = false;
    for i in 0..40 {
        let body = format!(
            r#"{{"votes":[{{"source":"s{i}","fact":"f{}","vote":"T"}},
                          {{"source":"t{i}","fact":"f{}","vote":"F"}}]}}"#,
            i % 5,
            i % 5
        );
        let (status, _) = request(addr, "POST", "/v1/votes", &body);
        assert!(status == 202 || status == 429, "unexpected status {status}");
        if status == 429 {
            saw_429 = true;
            break;
        }
    }
    assert!(saw_429, "queue never saturated");

    // Backpressure is transient: once the epoch thread drains, ingest
    // succeeds again.
    assert!(poll_until(Duration::from_secs(10), || {
        let (status, _) = request(
            addr,
            "POST",
            "/v1/votes",
            r#"{"votes":[{"source":"late","fact":"f0","vote":"T"}]}"#,
        );
        status == 202
    }));

    let metrics = handle.metrics_json();
    let rejected =
        metrics.get("counters").unwrap().get("ingest_rejected").unwrap().as_i64().unwrap();
    assert!(rejected >= 1);

    handle.shutdown().unwrap();
}

/// Like [`request_raw`] but also returns the value of `header` (lowercase
/// name), when present.
fn request_with_header(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    header: &str,
) -> (u16, Option<String>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    writer.flush().unwrap();

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line.split_whitespace().nth(1).unwrap().parse().unwrap();
    let mut value = None;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let lower = line.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix(&format!("{header}:")) {
            value = Some(v.trim().to_string());
        }
    }
    (status, value)
}

#[test]
fn shed_writes_carry_a_retry_after_header() {
    // Same saturation recipe as above, but capture the 429's headers: shed
    // clients must get an honest machine-readable backoff hint.
    let config = ServerConfig {
        queue_capacity: 8,
        epoch_linger: Duration::from_millis(300),
        epoch_max_batch: 2,
        ..test_config()
    };
    let handle = start(config).unwrap();
    let addr = handle.addr();

    let mut retry_after = None;
    for i in 0..40 {
        let body = format!(
            r#"{{"votes":[{{"source":"s{i}","fact":"f{}","vote":"T"}},
                          {{"source":"t{i}","fact":"f{}","vote":"F"}}]}}"#,
            i % 5,
            i % 5
        );
        let (status, header) = request_with_header(addr, "POST", "/v1/votes", &body, "retry-after");
        assert!(status == 202 || status == 429, "unexpected status {status}");
        if status == 202 {
            assert!(header.is_none(), "accepted writes must not advertise backoff");
        } else {
            retry_after = header;
            break;
        }
    }
    let retry_after = retry_after.expect("queue never saturated or 429 lacked Retry-After");
    let secs: u64 = retry_after.parse().expect("Retry-After must be integral seconds");
    assert!(secs >= 1, "backoff hint must be at least one second");

    handle.shutdown().unwrap();
}

#[test]
fn metrics_document_is_valid_and_complete() {
    let handle = start(test_config()).unwrap();
    let addr = handle.addr();
    request(
        addr,
        "POST",
        "/v1/votes",
        r#"{"sources":["quiet"],"votes":[{"source":"a","fact":"f","vote":"T"}]}"#,
    );
    poll_until(Duration::from_secs(10), || {
        let (s, _) = request(addr, "GET", "/v1/facts/f", "");
        s == 200
    });

    let (status, doc) = request(addr, "GET", "/metrics.json", "");
    assert_eq!(status, 200);
    // The report_check contract: header keys present and non-null.
    assert!(doc.get("report").is_some());
    assert!(doc.get("schema_version").is_some());
    let counters = doc.get("counters").unwrap();
    for key in ["http_requests", "http_responses_2xx", "ingest_batches", "epochs", "epochs_full"] {
        let v = counters.get(key).unwrap_or_else(|| panic!("missing counter {key}"));
        assert!(v.as_i64().unwrap() >= 1, "counter {key} never moved");
    }
    let gauges = doc.get("gauges").unwrap();
    assert!(gauges.get("ingest_queue_peak").is_some());
    for key in ["epoch_lag_seconds", "shed_rate_per_sec", "wal_fsync_p99_seconds"] {
        assert!(gauges.get(key).is_some(), "missing derived gauge {key}");
    }
    assert!(doc.get("spans").unwrap().get("request").is_some());

    // The Prometheus surface serves the same state as text exposition.
    let (status, prom, content_type) = request_raw(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(content_type, "text/plain; version=0.0.4");
    assert!(prom.starts_with("# "), "not text exposition");
    for family in [
        "# TYPE corroborate_http_requests_total counter",
        "# TYPE corroborate_request_seconds histogram",
        "# TYPE corroborate_epoch gauge",
        "corroborate_ingest_queue_peak",
        "corroborate_epoch_lag_seconds",
    ] {
        assert!(prom.contains(family), "missing {family}");
    }

    handle.shutdown().unwrap();
}

#[test]
fn traced_server_exports_a_hierarchical_chrome_trace() {
    let dir = tempdir("traced");
    let config = ServerConfig {
        data_dir: Some(dir.clone()),
        wal: WalConfig { fsync: true, ..WalConfig::default() },
        trace_capacity: 4096,
        ..test_config()
    };
    let handle = start(config).unwrap();
    assert!(handle.trace_enabled());
    let addr = handle.addr();

    let (status, _) = request(
        addr,
        "POST",
        "/v1/votes",
        r#"{"votes":[{"source":"a","fact":"traced","vote":"T"},
                     {"source":"b","fact":"traced","vote":"T"}]}"#,
    );
    assert_eq!(status, 202);
    assert!(poll_until(Duration::from_secs(10), || {
        let (s, _) = request(addr, "GET", "/v1/facts/traced", "");
        s == 200
    }));

    let (_, snapshot) = handle.shutdown_with_trace().unwrap();
    assert_eq!(snapshot.torn, 0);
    use corroborate_obs::{Span, TraceKind};
    let begins = |span: Span| {
        snapshot.events.iter().filter(move |e| e.span == span && e.kind == TraceKind::Begin)
    };
    // The epoch span tree: the group commit (wal_batch, wrapping the
    // framed wal_append) and re-score children parented to an epoch span.
    let epoch = begins(Span::Epoch).next().expect("an epoch span");
    assert!(epoch.id != 0);
    for child_span in [Span::WalBatch, Span::Rescore, Span::ViewPublish] {
        assert!(
            begins(child_span).any(|e| { begins(Span::Epoch).any(|parent| parent.id == e.parent) }),
            "{child_span:?} must be a child of an epoch span"
        );
    }
    assert!(
        begins(Span::WalAppend).any(|e| begins(Span::WalBatch).any(|parent| parent.id == e.parent)),
        "the frame write nests inside its group commit"
    );
    // Each frame is fsynced inside the group commit that wrote it: every
    // fsync span is a sibling of the frame write with the same first seq.
    assert!(begins(Span::WalFsync).next().is_some(), "an fsync span (fsync is on)");
    for fsync in begins(Span::WalFsync) {
        let append = begins(Span::WalAppend).find(|a| a.payload == fsync.payload);
        assert!(
            append.is_some_and(|a| a.parent == fsync.parent),
            "fsync of seq {} is not in the group commit that wrote it",
            fsync.payload
        );
    }
    assert!(begins(Span::Request).next().is_some(), "request spans recorded");
    assert!(begins(Span::QueueDrain).next().is_some(), "queue-drain spans recorded");
    // The export round-trips through the strict JSON parser.
    let doc = corroborate_obs::chrome_trace_json(&snapshot);
    let text = doc.to_json_pretty();
    let parsed = Json::parse(&text).unwrap();
    assert!(!parsed.get("traceEvents").unwrap().as_array().unwrap().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn untraced_server_returns_an_empty_snapshot() {
    let handle = start(test_config()).unwrap();
    assert!(!handle.trace_enabled());
    let (status, _) = request(handle.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200);
    let (_, snapshot) = handle.shutdown_with_trace().unwrap();
    assert!(snapshot.events.is_empty());
}

#[test]
fn graceful_shutdown_drains_and_wal_survives_restart() {
    let dir = tempdir("restart");
    let config = ServerConfig { data_dir: Some(dir.clone()), ..test_config() };
    let handle = start(config).unwrap();
    let addr = handle.addr();

    let (status, _) = request(
        addr,
        "POST",
        "/v1/votes",
        r#"{"votes":[{"source":"a","fact":"persistent","vote":"T"},
                     {"source":"b","fact":"persistent","vote":"T"}]}"#,
    );
    assert_eq!(status, 202);

    // The admin endpoint flips the server into draining.
    let (status, body) = request(addr, "POST", "/v1/admin/shutdown", "");
    assert_eq!(status, 202);
    assert_eq!(body.get("draining"), Some(&Json::Bool(true)));
    assert!(handle.shutdown_requested());

    // shutdown() completes the drain; the final view is a full recompute
    // including the accepted votes.
    let view = handle.shutdown().unwrap();
    assert!(view.is_full());
    let fact = view.fact_by_name("persistent").expect("drained view includes the ingested fact");
    assert!(view.probability(fact) > 0.5);

    // Restart from the same data dir: the fact is immediately queryable.
    let config = ServerConfig {
        data_dir: Some(dir),
        wal: WalConfig::default(),
        epoch: EpochConfig::default(),
        ..test_config()
    };
    let restarted = start(config).unwrap();
    let (status, fact) = request(restarted.addr(), "GET", "/v1/facts/persistent", "");
    assert_eq!(status, 200, "recovered fact must be served before any new ingest");
    assert_eq!(fact.get("stale"), Some(&Json::Bool(false)));
    assert_eq!(fact.get("votes").unwrap().as_array().unwrap().len(), 2);
    restarted.shutdown().unwrap();
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let handle = start(test_config()).unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    for _ in 0..3 {
        write!(writer, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        writer.flush().unwrap();
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        assert!(status_line.starts_with("HTTP/1.1 200"), "{status_line:?}");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.trim_end().is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
    }
    handle.shutdown().unwrap();
}

#[test]
fn a_deeply_nested_heartbeat_is_a_400_and_the_server_lives_on() {
    let handle = start(test_config()).unwrap();
    let addr = handle.addr();
    // The heartbeat body is parsed into a tree, one recursion per level.
    let (status, body) = request(addr, "POST", "/cluster/heartbeat", "[".repeat(100_000));
    assert_eq!(status, 400, "{}", body.to_json());
    assert_eq!(body.get("error").unwrap().as_str(), Some("invalid JSON"));
    let (status, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    handle.shutdown().unwrap();
}

#[test]
fn a_trust_path_without_a_source_is_a_404_and_keeps_every_worker() {
    let config = test_config();
    let workers = config.workers;
    let handle = start(config).unwrap();
    let addr = handle.addr();
    // No source name between `/v1/sources/` and `/trust`: one request
    // more than there are workers, so a panicking route would leave no
    // worker to answer the health check.
    for _ in 0..=workers {
        let (status, body) = request(addr, "GET", "/v1/sources/trust", "");
        assert_eq!(status, 404, "{}", body.to_json());
    }
    let (status, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    handle.shutdown().unwrap();
}
