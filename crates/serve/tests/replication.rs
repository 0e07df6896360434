//! End-to-end replication tests: a primary server and HTTP-fed read
//! replicas. Covers steady-state following (bit-identical fingerprints
//! after drain), the read-only serve shell, a mid-stream primary
//! crash/restart, and a late-joining replica that must snapshot-resync
//! past compacted history.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use corroborate_obs::Json;
use corroborate_serve::http::{read_request, read_response, write_request, write_response_headers};
use corroborate_serve::{
    replica, start, DeltaDataset, Mutation, ReplicaConfig, ServerConfig, ShipLog, Wal, WalConfig,
};

fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
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
    (status, Json::parse(&String::from_utf8(body).unwrap()).unwrap_or(Json::Null))
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
    let dir = std::env::temp_dir().join(format!("corroborate-repl-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn primary_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        workers: 2,
        data_dir: Some(dir.to_path_buf()),
        read_timeout: Duration::from_millis(500),
        epoch_linger: Duration::from_millis(2),
        ..Default::default()
    }
}

fn replica_config(primary: std::net::SocketAddr, id: &str) -> ReplicaConfig {
    ReplicaConfig {
        primary: primary.to_string(),
        id: id.to_string(),
        poll_interval: Duration::from_millis(2),
        ..Default::default()
    }
}

/// POSTs `n` votes (each its own mutation) in batches of four and returns
/// the number accepted.
fn write_votes(addr: std::net::SocketAddr, offset: usize, n: usize) -> usize {
    let mut accepted = 0;
    for chunk_start in (0..n).step_by(4) {
        let votes: Vec<String> = (chunk_start..(chunk_start + 4).min(n))
            .map(|i| {
                let i = offset + i;
                let vote = if i.is_multiple_of(3) { "F" } else { "T" };
                format!(r#"{{"source":"s{}","fact":"f{}","vote":"{vote}"}}"#, i % 7, i % 5)
            })
            .collect();
        let body = format!(r#"{{"votes":[{}]}}"#, votes.join(","));
        // Retry transient sheds: the queue is bounded.
        for _ in 0..200 {
            let (status, reply) = request(addr, "POST", "/v1/votes", &body);
            if status == 202 {
                accepted +=
                    usize::try_from(reply.get("accepted").unwrap().as_i64().unwrap()).unwrap();
                break;
            }
            assert_eq!(status, 429, "unexpected write status {status}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    accepted
}

/// The primary's durable ship-head sequence, from `GET /cluster`.
fn durable_seq(addr: std::net::SocketAddr) -> u64 {
    let (status, doc) = request(addr, "GET", "/cluster", "");
    assert_eq!(status, 200);
    u64::try_from(doc.get("primary").unwrap().get("durable_seq").unwrap().as_i64().unwrap())
        .unwrap()
}

/// [`durable_seq`] once it reaches `at_least`. A `202` means the batch is
/// queued; its WAL append, and so its place in the ship head, follows one
/// epoch linger later.
fn durable_seq_at_least(addr: std::net::SocketAddr, at_least: u64) -> u64 {
    let mut seq = 0;
    let reached = poll_until(Duration::from_secs(30), || {
        seq = durable_seq(addr);
        seq >= at_least
    });
    assert!(reached, "primary durable seq stuck at {seq} of {at_least}");
    seq
}

#[test]
fn replica_follows_primary_and_matches_fingerprint_after_drain() {
    let dir = tempdir("follow");
    let primary = start(primary_config(&dir)).unwrap();
    let addr = primary.addr();
    let replica = replica::start(replica_config(addr, "follow-1")).unwrap();

    let accepted = write_votes(addr, 0, 40);
    assert_eq!(accepted, 40);
    let target = durable_seq_at_least(addr, 40);

    // The replica catches up over HTTP and reports in-sync on /cluster.
    assert!(
        poll_until(Duration::from_secs(30), || {
            replica.applied_seq() >= target && replica.caught_up()
        }),
        "replica stuck at {} of {target}: {:?}",
        replica.applied_seq(),
        replica.last_error()
    );
    assert!(poll_until(Duration::from_secs(30), || {
        let (_, doc) = request(addr, "GET", "/cluster", "");
        doc.get("replicas")
            .and_then(Json::as_array)
            .is_some_and(|rs| rs.iter().any(|r| r.get("in_sync") == Some(&Json::Bool(true))))
    }));

    // The replica's read surface serves the replicated verdicts and
    // redirects writers to the primary.
    let (status, fact) = request(replica.addr(), "GET", "/v1/facts/f1", "");
    assert_eq!(status, 200);
    assert!(fact.get("probability").is_some());
    let (status, err) = request(
        replica.addr(),
        "POST",
        "/v1/votes",
        r#"{"votes":[{"source":"x","fact":"y","vote":"T"}]}"#,
    );
    assert_eq!(status, 405);
    assert!(err.get("error").unwrap().as_str().unwrap().contains("read-only"));
    let (status, health) = request(replica.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.get("role").unwrap().as_str(), Some("replica"));

    // Drain both sides: the final full-epoch views are bit-identical.
    let primary_view = primary.shutdown().unwrap();
    let replica_view = replica.shutdown().unwrap();
    assert_eq!(
        primary_view.fingerprint(),
        replica_view.fingerprint(),
        "replica diverged from the primary"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replica_follows_across_primary_crash_and_restart() {
    // Reserve a port so the restarted primary comes back at the same
    // address the replica is configured to fetch from.
    let port = {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().port()
    };
    let dir = tempdir("restart");
    let config = ServerConfig { addr: format!("127.0.0.1:{port}"), ..primary_config(&dir) };

    let primary = start(config.clone()).unwrap();
    let addr = primary.addr();
    let replica = replica::start(replica_config(addr, "restart-1")).unwrap();

    write_votes(addr, 0, 24);
    let first_target = durable_seq_at_least(addr, 24);
    assert!(poll_until(Duration::from_secs(30), || replica.applied_seq() >= first_target));

    // The primary goes away mid-stream; the replica keeps retrying.
    drop(primary.shutdown().unwrap());
    std::thread::sleep(Duration::from_millis(50));

    // ...and follows the restarted primary's new writes from where it
    // left off (the restarted WAL continues the same sequence space).
    let primary = start(config).unwrap();
    write_votes(addr, 24, 24);
    let target = durable_seq_at_least(addr, first_target + 24);
    assert!(
        poll_until(Duration::from_secs(30), || {
            replica.applied_seq() >= target && replica.caught_up()
        }),
        "replica stuck at {} of {target}: {:?}",
        replica.applied_seq(),
        replica.last_error()
    );

    let primary_view = primary.shutdown().unwrap();
    let replica_view = replica.shutdown().unwrap();
    assert_eq!(
        primary_view.fingerprint(),
        replica_view.fingerprint(),
        "replica diverged across the primary restart"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn late_replica_resyncs_from_a_snapshot_past_compacted_history() {
    let dir = tempdir("resync");
    // Aggressive compaction: the WAL snapshots every few records and
    // prunes sealed segments, so a late joiner cannot replay from seq 1.
    let config = ServerConfig {
        wal: WalConfig { compact_after_records: 8, segment_bytes: 1024, ..WalConfig::default() },
        ..primary_config(&dir)
    };
    let primary = start(config).unwrap();
    let addr = primary.addr();

    write_votes(addr, 0, 48);
    // Wait until compaction has actually advanced the snapshot floor.
    assert!(poll_until(Duration::from_secs(30), || {
        let (_, doc) = request(addr, "GET", "/cluster", "");
        doc.get("primary")
            .and_then(|p| p.get("snapshot_seq"))
            .and_then(Json::as_i64)
            .is_some_and(|s| s > 0)
    }));
    let target = durable_seq(addr);

    // A replica joining now starts from seq 0 and must bootstrap through
    // GET /wal/snapshot rather than the (pruned) segment history.
    let replica = replica::start(replica_config(addr, "late-1")).unwrap();
    assert!(
        poll_until(Duration::from_secs(30), || {
            replica.applied_seq() >= target && replica.caught_up()
        }),
        "late replica stuck at {} of {target}: {:?}",
        replica.applied_seq(),
        replica.last_error()
    );

    let primary_view = primary.shutdown().unwrap();
    let resyncs = replica.resyncs();
    let replica_view = replica.shutdown().unwrap();
    assert_eq!(
        primary_view.fingerprint(),
        replica_view.fingerprint(),
        "snapshot-resynced replica diverged"
    );
    assert!(resyncs >= 1, "replica should have taken the snapshot path");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One `GET` over a fresh connection: status, `Content-Type`, body.
fn get_raw(addr: std::net::SocketAddr, path: &str) -> (u16, String, Vec<u8>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    write_request(&mut writer, "GET", path, b"", false).unwrap();
    let response = read_response(&mut BufReader::new(stream), 1 << 20).unwrap();
    let content_type = response.header("content-type").unwrap_or_default().to_string();
    (response.status, content_type, response.body)
}

#[test]
fn replica_serves_prometheus_metrics_as_text_exposition() {
    let dir = tempdir("metrics");
    let primary = start(primary_config(&dir)).unwrap();
    let replica = replica::start(replica_config(primary.addr(), "metrics-1")).unwrap();

    let (status, content_type, body) = get_raw(replica.addr(), "/metrics");
    assert_eq!(status, 200);
    assert_eq!(content_type, "text/plain; version=0.0.4");
    assert!(body.starts_with(b"# "), "not text exposition");
    let (status, content_type, _) = get_raw(replica.addr(), "/metrics.json");
    assert_eq!(status, 200);
    assert_eq!(content_type, "application/json");

    replica.shutdown().unwrap();
    primary.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stand-in primary that sends every replica down the resync path —
/// its tail window and segments both start past the replica — and serves
/// `snapshot` as the body of `GET /wal/snapshot`.
fn resync_only_primary(snapshot: Vec<u8>) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            let snapshot = snapshot.clone();
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                while let Ok(request) = read_request(&mut reader, 1 << 20) {
                    let body = match request.path.as_str() {
                        "/wal/tail" => br#"{"error":"behind"}"#.to_vec(),
                        "/wal/segments" => {
                            br#"{"next_seq":100,"tail_floor_seq":100,"segments":[]}"#.to_vec()
                        }
                        "/wal/snapshot" => snapshot.clone(),
                        _ => b"{}".to_vec(),
                    };
                    let status = if request.path == "/wal/tail" { 410 } else { 200 };
                    let ct = "application/octet-stream";
                    if write_response_headers(&mut writer, status, ct, &[], &body, true).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// Every file in `dir` with its bytes, sorted by name.
fn dir_contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn replica_refuses_a_corrupt_snapshot_and_keeps_its_local_history() {
    // A real snapshot of a small state, with one bit flipped mid-payload.
    let source = tempdir("corrupt-source");
    let mut snapshot = {
        let (mut wal, _) = Wal::open(&source, WalConfig::default()).unwrap();
        let ship = Arc::new(ShipLog::new(1 << 20));
        wal.attach_shipper(Arc::clone(&ship)).unwrap();
        let mut live = DeltaDataset::new();
        for m in [
            Mutation::AddSource { name: "s1".into() },
            Mutation::AddFact { name: "f1".into(), label: None },
        ] {
            wal.append(&m).unwrap();
            live.apply(&m).unwrap();
        }
        wal.compact(&live).unwrap();
        ship.read_snapshot().expect("a drained primary ships its snapshot")
    };
    let mid = snapshot.len() / 2;
    snapshot[mid] ^= 0x01;

    // The replica's own history: one journalled batch.
    let local = tempdir("corrupt-local");
    {
        let (mut wal, _) = Wal::open(&local, WalConfig::default()).unwrap();
        wal.append(&Mutation::AddSource { name: "kept".into() }).unwrap();
    }
    let before = dir_contents(&local);

    let config = ReplicaConfig {
        data_dir: Some(local.clone()),
        ..replica_config(resync_only_primary(snapshot), "corrupt-1")
    };
    let replica = replica::start(config).unwrap();
    assert!(
        poll_until(Duration::from_secs(30), || {
            replica.last_error().is_some_and(|e| e.contains("snapshot"))
        }),
        "corrupt snapshot never reported: {:?}",
        replica.last_error()
    );
    assert_eq!(replica.resyncs(), 0);
    assert_eq!(replica.applied_seq(), 1, "local history still served");
    replica.shutdown().unwrap();
    assert_eq!(dir_contents(&local), before, "a refused snapshot must not touch local history");
    let _ = std::fs::remove_dir_all(&source);
    let _ = std::fs::remove_dir_all(&local);
}
