//! The load generator's side of the wire: a keep-alive HTTP/1.1 client,
//! the open-loop schedule, and the failure accounting every workload
//! shares.
//!
//! Accounting rules:
//! - an operation *fails* on a transport error or timeout, a 5xx, an
//!   unexpected 4xx, or a 404 on a read that is not a probe;
//! - a `429` is not a failure: the write backs off and retries, and the
//!   wait counts inside that write's latency (timed from its first
//!   attempt) until the final `202`.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use corroborate_serve::http::{read_response, write_request, HttpError};

/// Largest response body the client accepts.
const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// One completed exchange.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// When the request's last byte was handed to the socket.
    pub sent: Instant,
    /// When the first response byte was readable.
    pub first_byte: Instant,
}

/// A keep-alive connection to one server. A connection the server closed
/// while idle is reopened once, transparently; any other transport error
/// is returned and the next request reconnects.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
}

impl Client {
    /// Connects to `addr` with `timeout` on every socket read and write.
    ///
    /// # Errors
    /// Connection or socket-option failures.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> Result<Self, String> {
        let mut client = Self { addr, timeout, conn: None };
        client.reconnect()?;
        Ok(client)
    }

    fn reconnect(&mut self) -> Result<(), String> {
        let stream =
            TcpStream::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_read_timeout(Some(self.timeout)).map_err(|e| format!("timeout: {e}"))?;
        stream.set_write_timeout(Some(self.timeout)).map_err(|e| format!("timeout: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        self.conn = Some((reader, stream));
        Ok(())
    }

    /// One request/response exchange.
    ///
    /// # Errors
    /// Transport failures, timeouts, and malformed responses.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
        if self.conn.is_none() {
            self.reconnect()?;
        }
        let result = match self.exchange(method, path, body) {
            // The server dropped an idle keep-alive connection before
            // reading this request: reconnect and send it again.
            Err(Exchange::ClosedBeforeReply) => {
                self.reconnect()?;
                self.exchange(method, path, body)
            }
            other => other,
        };
        result.map_err(|e| {
            self.conn = None;
            match e {
                Exchange::ClosedBeforeReply => format!("{method} {path}: connection closed"),
                Exchange::Failed(message) => format!("{method} {path}: {message}"),
            }
        })
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Reply, Exchange> {
        let Some((reader, writer)) = self.conn.as_mut() else {
            return Err(Exchange::ClosedBeforeReply);
        };
        write_request(writer, method, path, body, true)
            .map_err(|e| Exchange::Failed(format!("write: {e}")))?;
        let sent = Instant::now();
        match reader.fill_buf() {
            Ok([]) => return Err(Exchange::ClosedBeforeReply),
            Ok(_) => {}
            Err(e) => return Err(Exchange::Failed(format!("read: {e}"))),
        }
        let first_byte = Instant::now();
        let response = read_response(reader, MAX_RESPONSE_BYTES).map_err(|e| {
            Exchange::Failed(match e {
                HttpError::Io(e) => format!("read: {e}"),
                other => format!("bad response: {other:?}"),
            })
        })?;
        Ok(Reply { status: response.status, body: response.body, sent, first_byte })
    }
}

enum Exchange {
    ClosedBeforeReply,
    Failed(String),
}

/// Whether a read's reply counts as a success. Probe reads expect 404
/// until the probe lands, so only they may see one.
pub fn read_ok(status: u16, probe: bool) -> bool {
    status == 200 || (probe && status == 404)
}

/// Attempted and failed operations of one generator thread.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted (a write retried after 429 counts once).
    pub attempted: u64,
    /// Operations that finally failed.
    pub failed: u64,
    /// 429 answers absorbed by retries.
    pub sheds: u64,
}

impl Tally {
    /// Counts one finished operation.
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Sums two tallies.
    pub fn merge(self, other: Tally) -> Tally {
        Tally {
            attempted: self.attempted + other.attempted,
            failed: self.failed + other.failed,
            sheds: self.sheds + other.sheds,
        }
    }
}

/// Backoff before retrying a shed (429) write. The server's
/// `Retry-After: 1` is a ceiling meant for many clients; a single
/// generator thread retries sooner and lets the queue say no again.
pub const SHED_BACKOFF: Duration = Duration::from_millis(5);

/// Gives up on a write that keeps being shed for this long.
const WRITE_DEADLINE: Duration = Duration::from_secs(10);

/// Sends one write through `send` until it is acknowledged: retries after
/// every 429 (sleeping `backoff`), stops at any other status or error.
/// Returns whether the write was finally acknowledged (`202`); the tally
/// counts one operation however many attempts it took.
pub fn post_until_accepted(
    tally: &mut Tally,
    backoff: Duration,
    mut send: impl FnMut() -> Result<Reply, String>,
) -> bool {
    let first = Instant::now();
    loop {
        match send() {
            Ok(reply) if reply.status == 429 && first.elapsed() < WRITE_DEADLINE => {
                tally.sheds += 1;
                std::thread::sleep(backoff);
            }
            Ok(reply) => {
                let ok = reply.status == 202;
                tally.note(ok);
                return ok;
            }
            Err(_) => {
                tally.note(false);
                return false;
            }
        }
    }
}

/// How long before a due time [`OpenLoop::wait_for`] stops sleeping.
const SPIN_WINDOW: Duration = Duration::from_micros(150);

/// A fixed-rate send schedule. Request `i` is due at `start + i·interval`
/// whether or not earlier requests have finished, so a stall delays every
/// request queued behind it and that wait is charged to their latency.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    start: Instant,
    interval: Duration,
}

impl OpenLoop {
    /// A schedule of `per_sec` requests per second starting at `start`.
    pub fn new(start: Instant, per_sec: f64) -> Self {
        Self { start, interval: Duration::from_secs_f64(1.0 / per_sec) }
    }

    /// When request `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }

    /// Waits until request `i` is due (no-op when it is already late).
    /// A sleep overshoots by the kernel's timer slack (tens of
    /// microseconds), which would be charged to every request; so the
    /// last [`SPIN_WINDOW`] is spent yielding instead.
    pub fn wait_for(&self, i: u64) {
        let due = self.due(i);
        let now = Instant::now();
        if due > now + SPIN_WINDOW {
            std::thread::sleep(due - now - SPIN_WINDOW);
        }
        while Instant::now() < due {
            std::thread::yield_now();
        }
    }
}

/// How late the generator itself sent a request: the gap between when it
/// could have sent (the later of its due time and the previous reply)
/// and when it did. Waits imposed by a slow server are excluded — those
/// are the server's latency, already charged from the due time.
pub fn generator_lateness(due: Instant, previous_reply: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due.max(previous_reply))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    /// A one-connection fake server: answers every request with `status`
    /// and stalls `stall` before answering the request numbered `stall_at`.
    fn fake_server(statuses: Vec<u16>, stall_at: usize, stall: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = std::io::BufWriter::new(stream);
            for (i, status) in statuses.into_iter().enumerate() {
                if corroborate_serve::http::read_request(&mut reader, 1 << 20).is_err() {
                    return;
                }
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                let _ = corroborate_serve::http::write_response(&mut writer, status, "{}", true);
                let _ = writer.flush();
            }
        });
        addr
    }

    #[test]
    fn open_loop_latency_is_charged_from_the_due_time() {
        let stall = Duration::from_millis(60);
        let addr = fake_server(vec![200; 12], 2, stall);
        let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
        let schedule = OpenLoop::new(Instant::now(), 500.0); // every 2 ms
        let mut from_due = Vec::new();
        let mut from_send = Vec::new();
        let mut lateness = Vec::new();
        let mut previous = Instant::now();
        for i in 0..12u64 {
            schedule.wait_for(i);
            let before = Instant::now();
            let reply = client.request("GET", "/v1/facts/x", b"").unwrap();
            let done = Instant::now();
            lateness.push(generator_lateness(schedule.due(i), previous, before));
            previous = done;
            from_due.push(done - schedule.due(i));
            from_send.push(done - before);
            assert_eq!(reply.status, 200);
        }
        // Request 3 was due 2 ms after the stalled request 2 but could not
        // go out until it finished: its open-loop latency carries the
        // stall, while its own service time does not.
        assert!(from_due[3] >= stall - Duration::from_millis(4), "{:?}", from_due[3]);
        assert!(from_send[3] < stall / 2, "{:?}", from_send[3]);
        // The requests queued behind the stall all inherit part of it.
        assert!(from_due[5] > Duration::from_millis(40), "{:?}", from_due[5]);
        // The generator itself was never the one running late.
        assert!(lateness.iter().all(|l| *l < Duration::from_millis(20)), "{lateness:?}");
    }

    #[test]
    fn a_shed_write_retried_to_202_adds_latency_not_a_failure() {
        let addr = fake_server(vec![429, 429, 202, 500], usize::MAX, Duration::ZERO);
        let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
        let mut tally = Tally::default();
        let backoff = Duration::from_millis(20);
        let start = Instant::now();
        let ok =
            post_until_accepted(&mut tally, backoff, || client.request("POST", "/v1/votes", b"{}"));
        assert!(ok, "the third attempt got its 202");
        assert!(start.elapsed() >= backoff * 2, "both backoffs are inside the latency");
        assert_eq!(tally, Tally { attempted: 1, failed: 0, sheds: 2 });

        // A 5xx is a failure; so is a dead connection.
        let ok =
            post_until_accepted(&mut tally, backoff, || client.request("POST", "/v1/votes", b"{}"));
        assert!(!ok);
        let ok =
            post_until_accepted(&mut tally, backoff, || client.request("POST", "/v1/votes", b"{}"));
        assert!(!ok);
        assert_eq!((tally.attempted, tally.failed, tally.sheds), (3, 2, 2));
    }

    #[test]
    fn only_probe_reads_may_see_404() {
        assert!(read_ok(200, false) && read_ok(200, true));
        assert!(read_ok(404, true));
        assert!(!read_ok(404, false));
        assert!(!read_ok(500, true) && !read_ok(405, false));
    }
}
