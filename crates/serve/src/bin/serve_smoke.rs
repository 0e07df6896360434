//! `serve_smoke` — the CI smoke test for the corroboration service.
//!
//! Boots a server on an ephemeral port, drives it over real TCP (ingest,
//! verdict polling, saturation → 429, `/metrics.json`, the Prometheus
//! `/metrics` scrape), requests a graceful drain through the admin
//! endpoint, and verifies the drained view. The primary server runs with a
//! WAL (fsync on) and a trace ring, so the exported Chrome trace contains
//! epoch spans decomposing into WAL append/fsync and re-score children.
//! The whole run is bounded by a watchdog; any failure (or hang) exits
//! nonzero, so the CI job is a single invocation.
//!
//! ```sh
//! serve_smoke [--report metrics.json] [--prom metrics.prom] [--trace trace.json]
//! ```
//!
//! With `--report`, the final `/metrics.json` document is written to the
//! given path for `report_check` to validate; `--prom` captures the
//! Prometheus text scrape the same way, and `--trace` writes the Chrome
//! trace-event JSON for `trace_check`.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use corroborate_obs::{chrome_trace_json, Json};
use corroborate_serve::http::{read_response, write_request};
use corroborate_serve::{start, ServerConfig, WalConfig};

const WATCHDOG: Duration = Duration::from_secs(60);

/// Events the primary server's trace ring retains.
const TRACE_CAPACITY: usize = 65_536;

/// Largest response body the smoke accepts; the biggest it reads is the
/// Prometheus scrape, ~13 KiB.
const MAX_RESPONSE_BYTES: usize = 1 << 20;

fn tempdir(name: &str) -> Result<PathBuf, String> {
    let dir = std::env::temp_dir().join(format!("corroborate-smoke-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("tempdir: {e}"))?;
    Ok(dir)
}

/// One request on a fresh connection, through the service's own client
/// codec.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| format!("timeout: {e}"))?;
    write_request(&mut &stream, method, path, body.as_bytes(), false)
        .map_err(|e| format!("{method} {path}: write: {e}"))?;
    let response = read_response(&mut BufReader::new(&stream), MAX_RESPONSE_BYTES)
        .map_err(|e| format!("{method} {path}: read: {e}"))?;
    Ok((response.status, String::from_utf8_lossy(&response.body).into_owned()))
}

fn check(condition: bool, what: &str) -> Result<(), String> {
    if condition {
        println!("serve_smoke: ok - {what}");
        Ok(())
    } else {
        Err(format!("FAILED - {what}"))
    }
}

fn run(
    report_path: Option<&str>,
    prom_path: Option<&str>,
    trace_path: Option<&str>,
) -> Result<(), String> {
    let deadline = Instant::now() + WATCHDOG;
    // A durable, fsyncing, traced primary: the exported trace must show
    // epoch spans with WAL append/fsync and re-score children.
    let data_dir = tempdir("primary")?;
    let config = ServerConfig {
        workers: 2,
        epoch_linger: Duration::from_millis(10),
        read_timeout: Duration::from_millis(500),
        data_dir: Some(data_dir.clone()),
        wal: WalConfig { fsync: true, ..WalConfig::default() },
        trace_capacity: TRACE_CAPACITY,
        ..Default::default()
    };
    let handle = start(config).map_err(|e| format!("start: {e}"))?;
    let addr = handle.addr();
    println!("serve_smoke: server on {addr}");

    // 1. Health before any data.
    let (status, body) = request(addr, "GET", "/healthz", "")?;
    check(status == 200 && body.contains("\"ok\""), "/healthz answers ok")?;

    // 2. Ingest a batch.
    let (status, _) = request(
        addr,
        "POST",
        "/v1/votes",
        r#"{"sources":["quiet"],
            "votes":[{"source":"alice","fact":"smoke","vote":"T"},
                     {"source":"bob","fact":"smoke","vote":"T"},
                     {"source":"eve","fact":"smoke","vote":"F"}]}"#,
    )?;
    check(status == 202, "ingest accepted with 202")?;

    // 3. Poll until the epoch publishes the verdict.
    let mut verdict = None;
    while Instant::now() < deadline {
        let (status, body) = request(addr, "GET", "/v1/facts/smoke", "")?;
        if status == 200 {
            verdict = Some(body);
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let verdict = verdict.ok_or("FAILED - verdict never published")?;
    let parsed = Json::parse(&verdict).map_err(|e| format!("fact body not JSON: {e}"))?;
    check(parsed.get("probability").is_some(), "fact verdict carries a probability")?;
    check(
        parsed.get("votes").and_then(Json::as_array).map(<[Json]>::len) == Some(3),
        "fact verdict carries all three provenance votes",
    )?;
    let (status, body) = request(addr, "GET", "/v1/sources/alice/trust", "")?;
    check(status == 200 && body.contains("\"trust\""), "source trust route answers")?;

    // 4. Saturate a tiny queue on a second server → 429.
    let tiny = start(ServerConfig {
        workers: 2,
        queue_capacity: 4,
        epoch_linger: Duration::from_millis(400),
        epoch_max_batch: 1,
        read_timeout: Duration::from_millis(500),
        ..Default::default()
    })
    .map_err(|e| format!("start tiny: {e}"))?;
    let mut saw_429 = false;
    for i in 0..64 {
        let body = format!(r#"{{"votes":[{{"source":"s{i}","fact":"f","vote":"T"}}]}}"#);
        let (status, _) = request(tiny.addr(), "POST", "/v1/votes", &body)?;
        if status == 429 {
            saw_429 = true;
            break;
        }
        if status != 202 {
            return Err(format!("FAILED - unexpected ingest status {status}"));
        }
    }
    check(saw_429, "saturated queue answers 429")?;
    tiny.shutdown().map_err(|e| format!("tiny shutdown: {e}"))?;

    // 5. /metrics.json renders and validates.
    let (status, metrics_text) = request(addr, "GET", "/metrics.json", "")?;
    check(status == 200, "/metrics.json answers 200")?;
    let metrics = Json::parse(&metrics_text).map_err(|e| format!("metrics not JSON: {e}"))?;
    for key in ["report", "schema_version", "counters", "spans", "gauges"] {
        check(metrics.get(key).is_some(), &format!("/metrics.json has `{key}`"))?;
    }
    let http_requests = metrics
        .get("counters")
        .and_then(|c| c.get("http_requests"))
        .and_then(Json::as_i64)
        .unwrap_or(0);
    check(http_requests >= 4, "http_requests counter moved")?;
    if let Some(path) = report_path {
        std::fs::write(path, &metrics_text).map_err(|e| format!("write report: {e}"))?;
        println!("serve_smoke: wrote {path}");
    }

    // 6. The Prometheus scrape exposes the cataloged families as text.
    let (status, prom_text) = request(addr, "GET", "/metrics", "")?;
    check(status == 200, "/metrics answers 200")?;
    check(prom_text.starts_with("# "), "/metrics is text exposition, not JSON")?;
    for family in [
        "corroborate_http_requests_total",
        "corroborate_epoch_seconds_bucket",
        "corroborate_epoch_lag_seconds",
    ] {
        check(prom_text.contains(family), &format!("/metrics exposes {family}"))?;
    }
    check(
        prom_text.contains("corroborate_wal_appends_total 4"),
        "/metrics counts the four journalled mutations",
    )?;
    if let Some(path) = prom_path {
        std::fs::write(path, &prom_text).map_err(|e| format!("write prom: {e}"))?;
        println!("serve_smoke: wrote {path}");
    }

    // 7. Graceful drain via the admin endpoint, then trace export.
    let (status, _) = request(addr, "POST", "/v1/admin/shutdown", "")?;
    check(status == 202, "admin shutdown accepted")?;
    let (view, trace) = handle.shutdown_with_trace().map_err(|e| format!("drain: {e}"))?;
    check(view.is_full(), "drained view is a full recompute")?;
    check(view.fact_by_name("smoke").is_some(), "drained view kept the ingested fact")?;
    check(!trace.events.is_empty(), "trace ring captured events")?;
    check(trace.torn == 0, "trace snapshot has no torn events")?;
    if let Some(path) = trace_path {
        let doc = chrome_trace_json(&trace);
        std::fs::write(path, doc.to_json_pretty()).map_err(|e| format!("write trace: {e}"))?;
        println!("serve_smoke: wrote {path}");
    }
    let _ = std::fs::remove_dir_all(&data_dir);
    check(Instant::now() < deadline, "finished inside the watchdog window")?;
    Ok(())
}

fn main() -> ExitCode {
    let mut report_path = None;
    let mut prom_path = None;
    let mut trace_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--report" => report_path = args.next(),
            "--prom" => prom_path = args.next(),
            "--trace" => trace_path = args.next(),
            other => {
                eprintln!("serve_smoke: unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }
    match run(report_path.as_deref(), prom_path.as_deref(), trace_path.as_deref()) {
        Ok(()) => {
            println!("serve_smoke: PASS");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("serve_smoke: {message}");
            ExitCode::FAILURE
        }
    }
}
