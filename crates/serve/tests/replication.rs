//! End-to-end replication tests: a primary server and HTTP-fed read
//! replicas. Covers steady-state following (bit-identical fingerprints
//! after drain), the read-only serve shell, a mid-stream primary
//! crash/restart, a late-joining replica that must snapshot-resync past
//! compacted history, the `GET /wal/tail` long poll, the `caught_up`
//! contract, heartbeat timing, and a replica shutdown that cuts its own
//! long poll.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use corroborate_obs::Json;
use corroborate_serve::http::{
    query_param, read_request, read_response, write_request, write_response_headers, Request,
};
use corroborate_serve::replica::HEARTBEAT_INTERVAL_NANOS;
use corroborate_serve::ship::TAIL_WAIT_CAP;
use corroborate_serve::wal::scan_frames;
use corroborate_serve::{
    replica, start, DeltaDataset, Mutation, ReplicaConfig, ServerConfig, ShipLog, TailResponse,
    Wal, WalConfig,
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
fn an_idle_fsync_on_primary_ships_its_last_batch() {
    let dir = tempdir("idle-fsync");
    let config = ServerConfig {
        wal: WalConfig { fsync: true, ..WalConfig::default() },
        ..primary_config(&dir)
    };
    let primary = start(config).unwrap();
    let addr = primary.addr();
    let replica = replica::start(replica_config(addr, "idle-1")).unwrap();

    // One two-vote batch (seqs 1 and 2), then no further writes: the
    // append that fsyncs the frame ships it, with no later tick needed.
    let body = r#"{"votes":[{"source":"s0","fact":"f0","vote":"T"},{"source":"s1","fact":"f0","vote":"F"}]}"#;
    let (status, _) = request(addr, "POST", "/v1/votes", body);
    assert_eq!(status, 202);
    let mut seq = 0;
    assert!(
        poll_until(Duration::from_secs(5), || {
            seq = durable_seq(addr);
            seq >= 2
        }),
        "idle primary never shipped its last batch: durable_seq {seq}"
    );
    assert!(
        poll_until(Duration::from_secs(5), || replica.applied_seq() >= 2),
        "replica stuck at {} of 2: {:?}",
        replica.applied_seq(),
        replica.last_error()
    );

    let primary_view = primary.shutdown().unwrap();
    let replica_view = replica.shutdown().unwrap();
    assert_eq!(primary_view.fingerprint(), replica_view.fingerprint());
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

/// Sends one `GET` on a fresh connection without reading the reply, so
/// the caller can act while the server holds it.
fn send_get(addr: std::net::SocketAddr, path: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_request(&mut stream.try_clone().unwrap(), "GET", path, b"", false).unwrap();
    stream
}

/// A durable primary holding four votes, and its head: the seq the next
/// frame will start at.
fn primary_at_head(name: &str) -> (corroborate_serve::ServerHandle, PathBuf, u64) {
    let dir = tempdir(name);
    let primary = start(primary_config(&dir)).unwrap();
    assert_eq!(write_votes(primary.addr(), 0, 4), 4);
    let head = durable_seq_at_least(primary.addr(), 4) + 1;
    (primary, dir, head)
}

#[test]
fn a_long_poll_answers_with_the_frame_that_lands_during_the_wait() {
    let (primary, dir, head) = primary_at_head("poll-lands");
    let addr = primary.addr();

    // Park a poll at the head (the wait asked for is clamped to the cap),
    // then write: the poll answers with the new frame.
    let asked = Instant::now();
    let parked = send_get(addr, &format!("/wal/tail?from_seq={head}&wait_ms=60000"));
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(write_votes(addr, 4, 4), 4);
    let response = read_response(&mut BufReader::new(parked), 1 << 20).unwrap();
    let waited = asked.elapsed();
    assert_eq!(response.status, 200);
    let scan = scan_frames(&response.body);
    assert!(scan.torn.is_none());
    assert_eq!(
        scan.batches.first().map(|b| b.first_seq),
        Some(head),
        "the poll answered without the frame that landed {waited:?} into its wait"
    );
    assert!(waited < TAIL_WAIT_CAP, "answered after {waited:?}, not when the frame landed");

    primary.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_long_poll_with_nothing_to_ship_answers_empty_at_the_cap() {
    let (primary, dir, head) = primary_at_head("poll-cap");
    let addr = primary.addr();

    // A wait below the cap is honoured...
    let asked = Instant::now();
    let (status, _, body) = get_raw(addr, &format!("/wal/tail?from_seq={head}&wait_ms=30"));
    let waited = asked.elapsed();
    assert_eq!((status, body.len()), (200, 0));
    assert!(waited >= Duration::from_millis(30), "returned after {waited:?}");

    // ...and a longer one is clamped to the cap.
    let asked = Instant::now();
    let (status, _, body) = get_raw(addr, &format!("/wal/tail?from_seq={head}&wait_ms=60000"));
    let waited = asked.elapsed();
    assert_eq!((status, body.len()), (200, 0));
    assert!(waited >= TAIL_WAIT_CAP, "returned after {waited:?}, before the cap");
    assert!(waited < Duration::from_secs(5), "waited {waited:?}: the cap was not applied");

    primary.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_tail_request_without_wait_ms_answers_at_once() {
    let (primary, dir, head) = primary_at_head("poll-none");
    let addr = primary.addr();

    let asked = Instant::now();
    let (status, _, body) = get_raw(addr, &format!("/wal/tail?from_seq={head}"));
    let waited = asked.elapsed();
    assert_eq!((status, body.len()), (200, 0));
    assert!(waited < TAIL_WAIT_CAP, "a request without wait_ms waited {waited:?}");
    // Off the head nothing parks either: a wait is only for the next frame.
    let (status, _, body) = get_raw(addr, "/wal/tail?from_seq=1&wait_ms=60000");
    assert_eq!(status, 200);
    assert!(!body.is_empty());
    let (status, _, _) = get_raw(addr, &format!("/wal/tail?from_seq={head}&wait_ms=soon"));
    assert_eq!(status, 400);

    primary.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn primary_drain_wakes_parked_polls_instead_of_waiting_out_the_cap() {
    let (primary, dir, head) = primary_at_head("poll-drain");
    let addr = primary.addr();
    let replica = replica::start(replica_config(addr, "parked-1")).unwrap();
    assert!(poll_until(Duration::from_secs(30), || {
        replica.applied_seq() + 1 >= head && replica.caught_up()
    }));

    // The caught-up replica long-polls; this poll is parked for certain.
    let parked = send_get(addr, &format!("/wal/tail?from_seq={head}&wait_ms=60000"));
    std::thread::sleep(Duration::from_millis(10));
    let started = Instant::now();
    primary.shutdown().unwrap();
    let drain = started.elapsed();
    let response = read_response(&mut BufReader::new(parked), 1 << 20).unwrap();
    assert_eq!((response.status, response.body.len()), (200, 0));
    assert!(drain < TAIL_WAIT_CAP / 2, "the drain waited {drain:?} for parked polls");

    replica.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_caught_up_replica_shuts_down_without_waiting_out_its_long_poll() {
    let dir = tempdir("replica-stop");
    // Spare workers: the primary answers each cut poll only at the cap,
    // so the rounds below can hold up to five workers parked at once, and
    // each replica's drain sends its last heartbeat on a fresh connection.
    let primary = start(ServerConfig { workers: 8, ..primary_config(&dir) }).unwrap();
    let addr = primary.addr();
    assert_eq!(write_votes(addr, 0, 4), 4);
    let head = durable_seq_at_least(addr, 4) + 1;

    for round in 0..5 {
        let replica = replica::start(replica_config(addr, &format!("stop-{round}"))).unwrap();
        // Caught up and idle: the fetch thread's next request is a long
        // poll that the primary answers only at the cap.
        assert!(poll_until(Duration::from_secs(30), || {
            replica.applied_seq() + 1 >= head && replica.caught_up()
        }));
        let started = Instant::now();
        replica.shutdown().unwrap();
        let took = started.elapsed();
        assert!(took < TAIL_WAIT_CAP / 2, "shutdown {round} waited {took:?} for its long poll");
    }

    primary.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The replica's `/replica` document, as (applied_seq, epoch,
/// fingerprint hex).
fn replica_doc(addr: std::net::SocketAddr) -> (u64, u64, String) {
    let (status, doc) = request(addr, "GET", "/replica", "");
    assert_eq!(status, 200);
    let seq = |key: &str| u64::try_from(doc.get(key).unwrap().as_i64().unwrap()).unwrap();
    let fingerprint = doc.get("fingerprint").unwrap().as_str().unwrap().to_string();
    (seq("applied_seq"), seq("epoch"), fingerprint)
}

/// `(applied_seq, in_sync)` of replica `id` on the primary's `/cluster`.
fn cluster_entry(addr: std::net::SocketAddr, id: &str) -> Option<(u64, bool)> {
    let (_, doc) = request(addr, "GET", "/cluster", "");
    let replicas = doc.get("replicas")?.as_array()?;
    let entry = replicas.iter().find(|r| r.get("id").and_then(Json::as_str) == Some(id))?;
    let applied = u64::try_from(entry.get("applied_seq")?.as_i64()?).ok()?;
    Some((applied, entry.get("in_sync") == Some(&Json::Bool(true))))
}

#[test]
fn replica_status_fingerprint_is_the_published_views_and_heartbeats_follow_in_time() {
    let dir = tempdir("heartbeat");
    let primary = start(primary_config(&dir)).unwrap();
    let addr = primary.addr();
    let replica = replica::start(replica_config(addr, "hb-1")).unwrap();

    let mut written = 0;
    for round in 0..3 {
        written += write_votes(addr, written, 8 + round);
        let target = durable_seq_at_least(addr, written as u64);
        assert!(poll_until(Duration::from_secs(30), || replica.applied_seq() >= target));
        let applied = Instant::now();

        // `/replica` reports the published view's own fingerprint.
        let view = replica.view();
        let (seq, epoch, fingerprint) = replica_doc(replica.addr());
        assert_eq!(seq, target);
        assert_eq!(epoch, view.epoch());
        assert_eq!(fingerprint, format!("{:016x}", view.fingerprint()), "round {round}");

        // The next heartbeat is due at most one interval after the last
        // one, and the fetch thread checks at least once per wait cap; the
        // slack covers scheduling on a loaded host.
        let budget = Duration::from_nanos(HEARTBEAT_INTERVAL_NANOS)
            + TAIL_WAIT_CAP
            + Duration::from_millis(100);
        assert!(
            poll_until(budget, || cluster_entry(addr, "hb-1") == Some((target, true))),
            "round {round}: /cluster showed {:?} {:?} after seq {target} was applied",
            cluster_entry(addr, "hb-1"),
            applied.elapsed()
        );
    }

    replica.shutdown().unwrap();
    primary.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stand-in primary serving a real [`ShipLog`] the way the primary
/// does, long polls included, with two levers for the test: while `hold`
/// is set every tail request is refused with `503`, and serving
/// `GET /wal/snapshot` sets `hold`. It sends the query of every tail
/// request it serves to `tails`.
struct ScriptedPrimary {
    ship: Arc<ShipLog>,
    hold: AtomicBool,
    refused: AtomicUsize,
    tails: Sender<String>,
}

impl ScriptedPrimary {
    fn new(tails: Sender<String>) -> Self {
        Self {
            ship: Arc::new(ShipLog::new(1 << 20)),
            hold: AtomicBool::new(false),
            refused: AtomicUsize::new(0),
            tails,
        }
    }

    fn answer(&self, request: &Request) -> (u16, Vec<u8>) {
        match request.path.as_str() {
            "/wal/tail" if self.hold.load(Ordering::SeqCst) => {
                self.refused.fetch_add(1, Ordering::SeqCst);
                (503, Vec::new())
            }
            "/wal/tail" => {
                let _ = self.tails.send(request.query.clone());
                let from = query_param(&request.query, "from_seq").unwrap().parse().unwrap();
                let wait = query_param(&request.query, "wait_ms").map_or(0, |v| v.parse().unwrap());
                self.ship.wait_for_frame(from, Duration::from_millis(wait));
                match self.ship.tail_since(from, u64::MAX) {
                    TailResponse::Frames { bytes, .. } => (200, bytes),
                    TailResponse::AtHead => (200, Vec::new()),
                    TailResponse::Behind { .. } => (410, Vec::new()),
                }
            }
            "/wal/segments" => (200, self.ship.index_json().to_json().into_bytes()),
            "/wal/snapshot" => {
                self.hold.store(true, Ordering::SeqCst);
                (200, self.ship.read_snapshot().unwrap_or_default())
            }
            _ => (200, b"{}".to_vec()),
        }
    }

    /// Sets `hold` and waits until a tail request has been refused: the
    /// replica is then out of any long poll and cannot fetch.
    fn hold_and_wait(&self) {
        self.hold.store(true, Ordering::SeqCst);
        let before = self.refused.load(Ordering::SeqCst);
        assert!(poll_until(Duration::from_secs(10), || {
            self.refused.load(Ordering::SeqCst) > before
        }));
    }
}

/// The next `n` tail queries the scripted primary serves.
fn next_tails(tails: &Receiver<String>, n: usize) -> Vec<String> {
    (0..n).map(|_| tails.recv_timeout(Duration::from_secs(10)).unwrap()).collect()
}

fn serve_scripted(script: Arc<ScriptedPrimary>) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            let script = Arc::clone(&script);
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                while let Ok(request) = read_request(&mut reader, 1 << 20) {
                    let (status, body) = script.answer(&request);
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

#[test]
fn caught_up_means_reached_the_head_since_start_or_the_last_resync() {
    let source = tempdir("scripted");
    let (mut wal, _) = Wal::open(&source, WalConfig::default()).unwrap();
    let (tails_tx, tails) = mpsc::channel();
    let script = Arc::new(ScriptedPrimary::new(tails_tx));
    wal.attach_shipper(Arc::clone(&script.ship)).unwrap();
    let mut live = DeltaDataset::new();
    // One single-mutation batch per fact, so fact `f{n}` is seq n.
    let append = |wal: &mut Wal, live: &mut DeltaDataset, facts: std::ops::RangeInclusive<u64>| {
        for f in facts {
            let batch = [Mutation::AddFact { name: format!("f{f}"), label: None }];
            wal.append_batch(&batch).unwrap();
            live.apply_all(&batch).unwrap();
        }
    };
    append(&mut wal, &mut live, 1..=3);
    script.hold.store(true, Ordering::SeqCst);
    let replica =
        replica::start(replica_config(serve_scripted(Arc::clone(&script)), "s-1")).unwrap();
    let wait_ms = TAIL_WAIT_CAP.as_millis();

    // Before the head is reached the flag is down.
    assert!(poll_until(Duration::from_secs(10), || script.refused.load(Ordering::SeqCst) > 0));
    assert!(!replica.caught_up());

    // A poll that finds nothing new raises it; only then do polls wait.
    script.hold.store(false, Ordering::SeqCst);
    assert!(poll_until(Duration::from_secs(10), || replica.caught_up()));
    assert_eq!(replica.applied_seq(), 3);
    assert_eq!(
        next_tails(&tails, 3),
        ["from_seq=1", "from_seq=4", &format!("from_seq=4&wait_ms={wait_ms}")]
    );

    // New writes the replica has not fetched yet leave it raised.
    script.hold_and_wait();
    append(&mut wal, &mut live, 4..=4);
    assert!(replica.caught_up());
    assert_eq!((replica.applied_seq(), script.ship.durable_seq()), (3, 4));
    script.hold.store(false, Ordering::SeqCst);
    assert!(poll_until(Duration::from_secs(10), || replica.applied_seq() == 4));

    // A snapshot resync lowers it: compact past the replica's position,
    // so its next poll is behind the window and it resyncs (the script
    // holds every poll after serving the snapshot).
    script.hold_and_wait();
    append(&mut wal, &mut live, 5..=8);
    wal.compact(&live).unwrap();
    append(&mut wal, &mut live, 9..=9);
    script.hold.store(false, Ordering::SeqCst);
    assert!(poll_until(Duration::from_secs(10), || replica.resyncs() == 1));
    assert!(poll_until(Duration::from_secs(10), || replica.applied_seq() == 8));
    assert!(!replica.caught_up());

    // It rises again at the head, and the polls on the way there do not wait.
    tails.try_iter().for_each(drop);
    script.hold.store(false, Ordering::SeqCst);
    assert!(poll_until(Duration::from_secs(10), || replica.caught_up()));
    assert_eq!(replica.applied_seq(), 9);
    assert_eq!(
        next_tails(&tails, 3),
        ["from_seq=9", "from_seq=10", &format!("from_seq=10&wait_ms={wait_ms}")]
    );

    replica.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&source);
}
