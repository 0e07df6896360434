//! A minimal HTTP/1.1 layer over `std::io` streams.
//!
//! The workspace builds with no external crates, so this module hand-rolls
//! exactly the subset the service needs: request-line + header parsing,
//! `Content-Length` bodies with a hard size cap, percent-decoded paths,
//! keep-alive, and a response writer. It is deliberately strict — anything
//! outside the subset (chunked transfer, HTTP/2 preface, absolute-form
//! targets) is rejected with a 4xx rather than guessed at.

use std::io::{BufRead, Write};

/// Upper bound on the request head (request line + headers), independent of
/// the body cap — a defense against unbounded header streams.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Percent-decoded path, query string stripped.
    pub path: String,
    /// Raw query string after the first `?` (empty when absent); not
    /// percent-decoded — use [`query_param`] to extract values.
    pub query: String,
    /// Raw body bytes (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Extracts a `key=value` pair from a raw query string, percent-decoding
/// the value. Returns the first match.
pub fn query_param(query: &str, key: &str) -> Option<String> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then(|| percent_decode(v))
    })
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before sending a request line —
    /// the normal end of a keep-alive session.
    Closed,
    /// Malformed request; the connection should answer `400` and close.
    BadRequest(String),
    /// Body exceeded the configured cap; answer `413` and close.
    PayloadTooLarge {
        /// The configured cap in bytes.
        limit: usize,
    },
    /// Socket-level failure (including read timeouts).
    Io(std::io::Error),
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Decodes `%XX` escapes (and nothing else — `+` stays literal, as in path
/// components). Invalid escapes pass through unchanged.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if let Some(hex) = bytes.get(i + 1..i + 3).and_then(|h| std::str::from_utf8(h).ok()) {
                if let Ok(v) = u8::from_str_radix(hex, 16) {
                    out.push(v);
                    i += 3;
                    continue;
                }
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn read_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<String, HttpError> {
    let mut line = String::new();
    let n = reader.read_line(&mut line)?;
    if n == 0 {
        return Err(HttpError::Closed);
    }
    *budget = budget.checked_sub(n).ok_or_else(|| {
        HttpError::BadRequest(format!("request head exceeds {MAX_HEAD_BYTES} bytes"))
    })?;
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Reads one request from `reader`.
///
/// # Errors
/// [`HttpError::Closed`] on clean EOF before the request line, otherwise
/// parse or I/O failures as described on [`HttpError`].
pub fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<Request, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_line(reader, &mut budget)?;
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m.to_string(), t, v),
        _ => {
            return Err(HttpError::BadRequest(format!("malformed request line: {request_line:?}")))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest(format!("unsupported version {version:?}")));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(format!("unsupported request target {target:?}")));
    }

    let mut content_length = 0usize;
    // HTTP/1.1 defaults to keep-alive; 1.0 defaults to close.
    let mut keep_alive = version == "HTTP/1.1";
    loop {
        let line = match read_line(reader, &mut budget) {
            Ok(line) => line,
            // EOF mid-headers is malformed, not a clean close.
            Err(HttpError::Closed) => {
                return Err(HttpError::BadRequest("connection closed mid-headers".into()))
            }
            Err(e) => return Err(e),
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header line: {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| HttpError::BadRequest(format!("bad content-length: {value:?}")))?;
            }
            "transfer-encoding" => {
                return Err(HttpError::BadRequest(
                    "chunked transfer encoding is not supported".into(),
                ));
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            _ => {}
        }
    }

    if content_length > max_body {
        return Err(HttpError::PayloadTooLarge { limit: max_body });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            HttpError::BadRequest("body shorter than content-length".into())
        } else {
            HttpError::Io(e)
        }
    })?;

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q.to_string()),
        None => (target, String::new()),
    };
    Ok(Request { method, path: percent_decode(path), query, body, keep_alive })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        410 => "Gone",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one `application/json` response.
///
/// # Errors
/// Socket-level failures.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    write_response_headers(writer, status, "application/json", &[], body.as_bytes(), keep_alive)
}

/// Writes one response with an explicit `Content-Type`, extra headers and
/// a binary body — the general form behind [`write_response`]. `extra`
/// entries land verbatim between the fixed headers and the blank line
/// (e.g. `("Retry-After", "1")`).
///
/// # Errors
/// Socket-level failures.
pub fn write_response_headers(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        writer,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        reason(status),
        body.len(),
    )?;
    for (name, value) in extra {
        write!(writer, "{name}: {value}\r\n")?;
    }
    writer.write_all(b"\r\n")?;
    writer.write_all(body)?;
    writer.flush()
}

// ---------------------------------------------------------------------------
// Client side: the replica fetch loop and the load generator speak the same
// HTTP/1.1 subset back at the server.

/// One parsed client-side response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Response {
    /// First header with the given lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find_map(|(k, v)| (k == name).then_some(v.as_str()))
    }
}

/// Writes one client request (path is sent verbatim — percent-encode
/// beforehand if needed).
///
/// # Errors
/// Socket-level failures.
pub fn write_request(
    writer: &mut impl Write,
    method: &str,
    path: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: corroborate\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len(),
    )?;
    writer.write_all(body)?;
    writer.flush()
}

/// Reads one response from `reader`, enforcing `max_body` on the body.
///
/// # Errors
/// [`HttpError::Closed`] on clean EOF before the status line, otherwise
/// parse or I/O failures as described on [`HttpError`].
pub fn read_response(reader: &mut impl BufRead, max_body: usize) -> Result<Response, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let status_line = read_line(reader, &mut budget)?;
    let mut parts = status_line.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => {
            code.parse::<u16>().map_err(|_| {
                HttpError::BadRequest(format!("malformed status line: {status_line:?}"))
            })?
        }
        _ => return Err(HttpError::BadRequest(format!("malformed status line: {status_line:?}"))),
    };
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let line = match read_line(reader, &mut budget) {
            Ok(line) => line,
            Err(HttpError::Closed) => {
                return Err(HttpError::BadRequest("connection closed mid-headers".into()))
            }
            Err(e) => return Err(e),
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header line: {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| HttpError::BadRequest(format!("bad content-length: {value:?}")))?;
        }
        headers.push((name, value));
    }
    if content_length > max_body {
        return Err(HttpError::PayloadTooLarge { limit: max_body });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            HttpError::BadRequest("body shorter than content-length".into())
        } else {
            HttpError::Io(e)
        }
    })?;
    Ok(Response { status, headers, body })
}

#[cfg(test)]
mod tests {
    use std::io::BufReader;

    use super::*;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024)
    }

    #[test]
    fn parses_a_post_with_body() {
        let r =
            parse("POST /v1/votes HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/v1/votes");
        assert_eq!(r.body, b"hello");
        assert!(r.keep_alive);
    }

    #[test]
    fn strips_query_and_percent_decodes_the_path() {
        let r = parse("GET /v1/facts/Joe%27s%20Caf%C3%A9?verbose=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.path, "/v1/facts/Joe's Café");
        assert_eq!(r.query, "verbose=1");
        let r = parse("GET /wal/tail HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.query, "");
    }

    #[test]
    fn query_params_decode_and_pick_the_first_match() {
        assert_eq!(query_param("from_seq=42&x=1", "from_seq").as_deref(), Some("42"));
        assert_eq!(query_param("a=one&a=two", "a").as_deref(), Some("one"));
        assert_eq!(query_param("name=Joe%27s", "name").as_deref(), Some("Joe's"));
        assert_eq!(query_param("from_seq=42", "id"), None);
        assert_eq!(query_param("", "id"), None);
    }

    #[test]
    fn extra_headers_land_between_the_fixed_headers_and_the_body() {
        let mut buf = Vec::new();
        write_response_headers(
            &mut buf,
            429,
            "application/json",
            &[("Retry-After", "1")],
            b"{}",
            true,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn client_response_round_trips_through_the_parser() {
        let mut wire = Vec::new();
        write_response_headers(
            &mut wire,
            200,
            "application/json",
            &[("Retry-After", "2")],
            b"abc",
            false,
        )
        .unwrap();
        let r = read_response(&mut BufReader::new(wire.as_slice()), 1024).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"abc");
        assert_eq!(r.header("retry-after"), Some("2"));
        assert_eq!(r.header("content-type"), Some("application/json"));
        assert!(matches!(
            read_response(&mut BufReader::new(&b""[..]), 1024),
            Err(HttpError::Closed)
        ));
    }

    #[test]
    fn client_request_writer_emits_the_served_subset() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/v1/votes", b"{\"x\":1}", true).unwrap();
        let r = read_request(&mut BufReader::new(wire.as_slice()), 1024).unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/v1/votes");
        assert_eq!(r.body, b"{\"x\":1}");
        assert!(r.keep_alive);
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let r = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
    }

    #[test]
    fn oversized_body_is_rejected_with_the_limit() {
        let e = parse("POST / HTTP/1.1\r\nContent-Length: 4096\r\n\r\n").unwrap_err();
        assert!(matches!(e, HttpError::PayloadTooLarge { limit: 1024 }));
    }

    #[test]
    fn clean_eof_is_closed_but_mid_request_eof_is_bad() {
        assert!(matches!(parse(""), Err(HttpError::Closed)));
        assert!(matches!(parse("GET / HTTP/1.1\r\nHost: x\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nhi"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn junk_is_rejected() {
        assert!(matches!(parse("NOT A REQUEST\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(parse("GET / HTTP/2\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET http://evil/ HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn percent_decode_leaves_invalid_escapes_alone() {
        assert_eq!(percent_decode("a%2Fb"), "a/b");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("plus+stays"), "plus+stays");
    }

    #[test]
    fn response_writer_emits_valid_http() {
        let mut buf = Vec::new();
        write_response(&mut buf, 202, "{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 202 Accepted\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }
}
